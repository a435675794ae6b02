"""Workload-parallel campaign execution: bit-identity with the in-process map.

A campaign is a map over per-workload :class:`WorkloadSweepSpec` specs.
``CharacterizationCampaign.run()`` maps them in-process and
``run(parallel=n)`` maps the same specs over a process pool, merging the
returned columnar blocks in workload order.  Because every workload
consumes independent keyed RNG streams, the merged record must be
*bit-identical* for any worker count — including ``parallel=1``, which
still goes through the pool machinery (picklable specs, worker-side
experiments and telemetry, block merge) at trivial width.
"""

import pytest

from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
    WorkloadSweepSpec,
    _run_workload_sweep,
)
from repro.errors import CharacterizationError

from tests.oracles.dataset import same_wer_columns

CONFIG = CampaignConfig(
    workloads=("backprop", "memcached", "bfs"),
    trefp_values_s=(1.173, 2.283),
    temperatures_c=(50.0,),
    ue_trefp_values_s=(2.283,),
    ue_repetitions=3,
)


@pytest.fixture(scope="module")
def sequential_result():
    return CharacterizationCampaign(config=CONFIG, seed=23).run()


class TestParallelBitIdentity:
    def test_single_worker_pool_matches_sequential(self, sequential_result):
        result = CharacterizationCampaign(config=CONFIG, seed=23).run(parallel=1)
        assert same_wer_columns(result, sequential_result)
        assert result.pue_summaries == sequential_result.pue_summaries

    def test_many_worker_pool_matches_sequential(self, sequential_result):
        result = CharacterizationCampaign(config=CONFIG, seed=23).run(parallel=3)
        assert same_wer_columns(result, sequential_result)
        assert result.pue_summaries == sequential_result.pue_summaries

    def test_parallel_aggregations_match_sequential(self, sequential_result):
        result = CharacterizationCampaign(config=CONFIG, seed=23).run(parallel=2)
        assert result.wer_by_workload(2.283, 50.0) == (
            sequential_result.wer_by_workload(2.283, 50.0)
        )
        assert result.wer_by_rank(1.173, 50.0) == (
            sequential_result.wer_by_rank(1.173, 50.0)
        )

    def test_parallel_without_ue_study(self):
        sequential = CharacterizationCampaign(config=CONFIG, seed=5).run(
            include_ue_study=False
        )
        parallel = CharacterizationCampaign(config=CONFIG, seed=5).run(
            include_ue_study=False, parallel=2
        )
        assert same_wer_columns(parallel, sequential)
        assert parallel.pue_summaries == []


class TestParallelArguments:
    def test_zero_workers_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationCampaign(config=CONFIG).run(parallel=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationCampaign(config=CONFIG).run(parallel=-2)

    def test_non_integer_workers_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationCampaign(config=CONFIG).run(parallel=2.5)


class TestWorkerUnit:
    """The pool worker itself, run in-process on a picklable spec."""

    def test_worker_reproduces_sequential_blocks(self):
        campaign = CharacterizationCampaign(config=CONFIG, seed=23)
        spec = campaign._workload_specs(include_ue_study=True)[0]
        assert isinstance(spec, WorkloadSweepSpec)
        outcome = _run_workload_sweep(spec)
        assert outcome.workload == CONFIG.workloads[0]
        # CE block: points x repetitions x 8 ranks; UE block: repetition 0 only.
        assert len(outcome.wer_block) == 2 * CONFIG.repetitions * 8
        assert len(outcome.ue_block) == len(CONFIG.ue_trefp_values_s) * 8
        assert [s.total_runs for s in outcome.pue_summaries] == (
            [CONFIG.ue_repetitions] * len(CONFIG.ue_trefp_values_s)
        )

    def test_spec_is_picklable(self):
        import pickle

        campaign = CharacterizationCampaign(config=CONFIG, seed=23)
        specs = campaign._workload_specs(include_ue_study=True)
        restored = pickle.loads(pickle.dumps(specs))
        assert [s.workload for s in restored] == list(CONFIG.workloads)
