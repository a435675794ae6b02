"""One workload unit in a fresh interpreter; prints one JSON line.

``cold_campaign`` passes run here so that each starts in a process where
no workload has been profiled, and the traced run takes its untraced
reference time here so that its own pipeline also starts fresh::

    python3 perfbench/unit.py <workload> <size> <seed>

The line holds ``import_s`` (importing ``repro``), ``unit_s`` (the timed
unit; set-up excluded), ``peak_rss_mb`` and the output check ``errors``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline as p  # noqa: E402

IMPORT_S = time.perf_counter() - _START


def main(workload: str, size_name: str, seed: int) -> int:
    size = p.SIZES[size_name]
    errors = []
    if workload == "cold_campaign":
        start = time.perf_counter()
        campaign, predictor = p.cold_unit(size, seed)
        unit_s = time.perf_counter() - start
        errors = p.check_cold(size, seed, campaign, predictor, p.load_reference())
    elif workload == "accuracy_study":
        datasets = p.accuracy_setup(size, seed)
        start = time.perf_counter()
        reports = p.accuracy_unit(size, datasets)
        unit_s = time.perf_counter() - start
        errors = p.check_accuracy(size, seed, reports, p.load_reference())
    else:
        setup = p.serve_setup(size, seed, p.scratch_dir(ROOT))
        stream = p.make_stream(size, seed, size.unit_requests, setup.hot)
        try:
            start = time.perf_counter()
            outcome = p.serve_unit(setup.service, stream)
            unit_s = time.perf_counter() - start
            errors, _replay = p.check_serve(setup, stream, outcome)
        finally:
            setup.service.close()
    print(json.dumps({
        "import_s": IMPORT_S, "unit_s": unit_s, "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
