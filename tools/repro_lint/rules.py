"""Rule registry and the seven REPxxx determinism/contract checks.

Each rule is a :class:`Rule` instance registered in :data:`RULES`.  A rule
owns a path scope (which files it applies to, expressed over posix-style
path parts so absolute, relative and fixture-virtual paths all match) and
a ``check`` function that walks a parsed module and yields
:class:`~tools.repro_lint.engine.Violation`s.

The engine decorates every AST node with a ``_repro_parent`` attribute
before calling rules, so checks can climb to enclosing ``if`` statements,
function bodies and class bodies without each rule re-walking the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from tools.repro_lint.engine import Violation

RuleCheck = Callable[[ast.Module, str], Iterator[Violation]]
PathScope = Callable[[Sequence[str]], bool]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    title: str
    rationale: str
    scope: PathScope = field(repr=False)
    check: RuleCheck = field(repr=False)

    def applies_to(self, path_parts: Sequence[str]) -> bool:
        return self.scope(path_parts)


RULES: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return rule


# --------------------------------------------------------------------------
# Path scopes.  Paths arrive as tuples of posix parts; contiguous-subsequence
# matching makes "/root/repo/src/repro/x.py", "src/repro/x.py" and a
# fixture's virtual path all resolve the same way.
# --------------------------------------------------------------------------
def _contains_run(parts: Sequence[str], run: Tuple[str, ...]) -> bool:
    n = len(run)
    return any(tuple(parts[i : i + n]) == run for i in range(len(parts) - n + 1))


def _in_src_repro(parts: Sequence[str]) -> bool:
    return _contains_run(parts, ("src", "repro"))


def _in_telemetry(parts: Sequence[str]) -> bool:
    return _contains_run(parts, ("src", "repro", "telemetry"))


def _in_src(parts: Sequence[str]) -> bool:
    return "src" in parts


def _everywhere(parts: Sequence[str]) -> bool:
    return True


def _src_repro_outside_telemetry(parts: Sequence[str]) -> bool:
    return _in_src_repro(parts) and not _in_telemetry(parts)


# --------------------------------------------------------------------------
# Shared AST helpers.
# --------------------------------------------------------------------------
def _parents(node: ast.AST) -> Iterator[ast.AST]:
    current = getattr(node, "_repro_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_repro_parent", None)


def _enclosing_function(node: ast.AST) -> ast.AST | None:
    for parent in _parents(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return parent
    return None


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for nested Name/Attribute chains, else ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# --------------------------------------------------------------------------
# REP001 — sampling must flow through seeded Generators / keyed streams.
# --------------------------------------------------------------------------
#: Allowed constructors on ``np.random``: these build explicit generator
#: objects (seeded by the caller or deliberately fresh); everything else on
#: the module is legacy global-state sampling.
_NP_RANDOM_ALLOWED = {"Generator", "default_rng", "PCG64", "SeedSequence", "BitGenerator"}
_NP_ALIASES = {"np", "numpy"}


def _is_seeded_random(node: ast.Call) -> bool:
    """``random.Random(<seed>)`` / ``Random(<seed>)``: an explicitly seeded instance."""
    return bool(node.args or node.keywords)


def _check_rep001(tree: ast.Module, path: str) -> Iterator[Violation]:
    stdlib_message = (
        "stdlib `random` draws from hidden global state; use a seeded "
        "np.random.Generator, a crc32-keyed stream or random.Random(<seed>)"
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import random` is fine; its module-level draws are flagged below.
            if any(alias.name == "random" and alias.asname for alias in node.names):
                yield Violation("REP001", path, node.lineno, node.col_offset, stdlib_message)
            continue
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" and any(alias.name != "Random" for alias in node.names):
                yield Violation("REP001", path, node.lineno, node.col_offset, stdlib_message)
            continue
        if isinstance(node, ast.Call) and _dotted_name(node.func) in ("random.Random", "Random"):
            if not _is_seeded_random(node):
                yield Violation(
                    "REP001", path, node.lineno, node.col_offset,
                    "random.Random() without a seed draws from OS entropy; pass the seed",
                )
            continue
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id == "random":
            if node.attr != "Random":
                yield Violation("REP001", path, node.lineno, node.col_offset, stdlib_message)
            continue
        if not (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in _NP_ALIASES
        ):
            continue
        if node.attr in _NP_RANDOM_ALLOWED:
            continue
        yield Violation(
            "REP001", path, node.lineno, node.col_offset,
            f"np.random.{node.attr} uses the legacy global RNG; all sampling "
            "must flow through seeded Generators or crc32-keyed streams",
        )


register(Rule(
    id="REP001",
    title="no global-state RNG in library code",
    rationale=(
        "Bit-identical WER/PUE numbers require every random draw to come from "
        "an explicit, seeded np.random.Generator (or the crc32-keyed per-cell "
        "streams, or an explicitly seeded random.Random).  Legacy np.random.* "
        "functions and the stdlib random module's functions share hidden global "
        "state that import order and thread timing mutate."
    ),
    scope=_in_src_repro,
    check=_check_rep001,
))


# --------------------------------------------------------------------------
# REP002 — monotonic clock only outside telemetry/.
# --------------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "date.today", "datetime.date.today",
}
_WALL_CLOCK_IMPORTS = {"time", "time_ns"}


def _check_rep002(tree: ast.Module, path: str) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_IMPORTS:
                    yield Violation(
                        "REP002", path, node.lineno, node.col_offset,
                        f"importing time.{alias.name} pulls the wall clock into "
                        "library code; use time.monotonic/perf_counter",
                    )
            continue
        if isinstance(node, ast.Call) and _dotted_name(node.func) in _WALL_CLOCK_CALLS:
            yield Violation(
                "REP002", path, node.lineno, node.col_offset,
                f"{_dotted_name(node.func)}() reads the wall clock; library "
                "code must use the monotonic clock (telemetry/ owns the one "
                "wall-clock read for run metadata)",
            )


register(Rule(
    id="REP002",
    title="no wall clock outside telemetry/",
    rationale=(
        "Wall-clock reads (time.time, datetime.now) make results depend on "
        "when a run happens, breaking replay and cross-run comparison.  Timed "
        "scopes use the monotonic clock; the single wall-clock timestamp in a "
        "run lives in telemetry/'s RunReport metadata."
    ),
    scope=_src_repro_outside_telemetry,
    check=_check_rep002,
))


# --------------------------------------------------------------------------
# REP003 — telemetry metric calls on hot paths must be enabled-gated.
# --------------------------------------------------------------------------
_TELEMETRY_MUTATORS = {"incr", "gauge", "observe", "observe_array"}


def _looks_like_telemetry(receiver: str) -> bool:
    return "telemetry" in receiver.lower() or receiver in ("tel", "tel()")


def _is_enabled_gated(node: ast.AST, receiver: str) -> bool:
    needle = f"{receiver}.enabled"
    for parent in _parents(node):
        if isinstance(parent, ast.If) and needle in ast.unparse(parent.test):
            return True
    return False


def _check_rep003(tree: ast.Module, path: str) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _TELEMETRY_MUTATORS
        ):
            continue
        receiver = ast.unparse(node.func.value)
        if not _looks_like_telemetry(receiver):
            continue
        if _is_enabled_gated(node, receiver):
            continue
        yield Violation(
            "REP003", path, node.lineno, node.col_offset,
            f"{receiver}.{node.func.attr}(...) is not inside an "
            f"`if {receiver}.enabled:` block; gate metric mutators so "
            "disabled-mode hot paths pay one attribute check, not a call",
        )


register(Rule(
    id="REP003",
    title="telemetry metric calls must be enabled-gated",
    rationale=(
        "The telemetry no-op contract (<=1.05x instrumented ceiling) holds "
        "because disabled-mode hot paths never pay call/argument-building "
        "overhead: metric mutators (incr/gauge/observe/observe_array) sit "
        "behind `if telemetry.enabled:`.  span() self-gates and is exempt."
    ),
    scope=_src_repro_outside_telemetry,
    check=_check_rep003,
))


# --------------------------------------------------------------------------
# REP004 — no float ==/!= comparisons in src.
# --------------------------------------------------------------------------
def _is_float_operand(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_operand(node.operand)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def _check_rep004(tree: ast.Module, path: str) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_operand(left) or _is_float_operand(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield Violation(
                    "REP004", path, node.lineno, node.col_offset,
                    f"float {symbol} comparison; bit-identity is asserted via "
                    "np.array_equal in tests — for scalars prefer an ordered "
                    "guard (<= 0.0) or suppress where exactness is the point",
                )


register(Rule(
    id="REP004",
    title="no float ==/!= comparisons",
    rationale=(
        "Scalar float equality is how silent drift hides: a guard like "
        "`x == 0.0` stops firing after an innocent re-ordering changes the "
        "last ulp.  Equality pins belong in tests via np.array_equal.  "
        "Intentional exact sentinels (elementwise masks on values stored "
        "without arithmetic) carry a `# repro-lint: disable=REP004` with a "
        "justifying comment."
    ),
    scope=_in_src,
    check=_check_rep004,
))


# --------------------------------------------------------------------------
# REP005 — no mutable default arguments, no bare except.
# --------------------------------------------------------------------------
_MUTABLE_CTORS = {"list", "dict", "set"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CTORS
    )


def _check_rep005(tree: ast.Module, path: str) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = [*node.args.defaults,
                        *(d for d in node.args.kw_defaults if d is not None)]
            for default in defaults:
                if _is_mutable_default(default):
                    name = getattr(node, "name", "<lambda>")
                    yield Violation(
                        "REP005", path, default.lineno, default.col_offset,
                        f"mutable default argument in {name}(); defaults are "
                        "evaluated once and shared across calls — use None "
                        "and construct inside the body",
                    )
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Violation(
                "REP005", path, node.lineno, node.col_offset,
                "bare `except:` swallows KeyboardInterrupt/SystemExit; catch "
                "a concrete exception type",
            )


register(Rule(
    id="REP005",
    title="no mutable defaults, no bare except",
    rationale=(
        "A mutable default is one shared object mutated across calls — state "
        "leaking between campaigns is exactly the nondeterminism this repo "
        "exists to rule out.  Bare except hides the same class of bug by "
        "eating the error that would have exposed it."
    ),
    scope=_everywhere,
    check=_check_rep005,
))


# --------------------------------------------------------------------------
# REP006 — public functions in src/repro must be fully type-annotated.
# --------------------------------------------------------------------------
def _is_public_name(name: str) -> bool:
    if name == "__init__":
        return True
    if name.startswith("__") and name.endswith("__"):
        return False
    return not name.startswith("_")


def _in_public_context(node: ast.AST) -> bool:
    """True when no enclosing function/private class hides the def."""
    for parent in _parents(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        if isinstance(parent, ast.ClassDef) and parent.name.startswith("_"):
            return False
    return True


def _check_rep006(tree: ast.Module, path: str) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_public_name(node.name) or not _in_public_context(node):
            continue
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if args.vararg is not None:
            every.append(args.vararg)
        if args.kwarg is not None:
            every.append(args.kwarg)
        missing = [
            a.arg for a in every
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if missing:
            yield Violation(
                "REP006", path, node.lineno, node.col_offset,
                f"public function {node.name}() has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if node.returns is None and node.name != "__init__":
            yield Violation(
                "REP006", path, node.lineno, node.col_offset,
                f"public function {node.name}() has no return annotation",
            )


register(Rule(
    id="REP006",
    title="public API must be fully type-annotated",
    rationale=(
        "The staged mypy gate can only ratchet toward strict if the public "
        "surface is annotated; unannotated defs are skipped by mypy entirely, "
        "so a missing annotation silently exempts a function from every other "
        "check."
    ),
    scope=_in_src_repro,
    check=_check_rep006,
))


# --------------------------------------------------------------------------
# REP007 — oracles live with the tests, not in the library.
# --------------------------------------------------------------------------
_ORACLE_PACKAGES = {"tests", "oracles"}


def _imported_modules(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
    return []


def _check_rep007(tree: ast.Module, path: str) -> Iterator[Violation]:
    for node in ast.walk(tree):
        for module in _imported_modules(node):
            if _ORACLE_PACKAGES & set(module.split(".")):
                yield Violation(
                    "REP007", path, node.lineno, node.col_offset,
                    f"library code imports {module!r}; oracles and test "
                    "helpers live in tests/oracles/ and only tests import them",
                )
    for node in tree.body:
        oracle_def = (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("reference_")
        ) or (isinstance(node, ast.ClassDef) and node.name.startswith("Reference"))
        if oracle_def:
            yield Violation(
                "REP007", path, node.lineno, node.col_offset,
                f"oracle {node.name} defined in library code; move it to "
                "tests/oracles/",
            )


register(Rule(
    id="REP007",
    title="oracles stay out of the library",
    rationale=(
        "An oracle exists only to pin a test, so it belongs with the tests: "
        "in src/repro it is code every reader and every line count pays "
        "for, and a library caller can come to depend on it.  The "
        "convention is a `reference_*` function or `Reference*` class in "
        "tests/oracles/; library code never imports that package."
    ),
    scope=_in_src_repro,
    check=_check_rep007,
))
