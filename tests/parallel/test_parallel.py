"""Tests for the process-sharded parallel backend (docs/parallel.md).

The expensive pieces — real worker processes, real pipes — run once per
app/worker-count through module-scoped fixtures; everything else
exercises construction, validation and dispatch without forking.
"""

import multiprocessing

import pytest

from repro import SimulationConfig, TimeWarpSimulation, make_simulation
from repro.kernel.errors import ConfigurationError
from repro.parallel import ParallelSimulation, resolve_strategy
from repro.verify import Scenario, run_scenario, sequential_golden
from repro.verify.lattice import validation_scenario

#: the phold workload the parallel validation runs (``repro-bench parallel``)
PHOLD = Scenario(app="phold", end_time=300.0)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)


def parallel_run(app, workers):
    return run_scenario(
        validation_scenario(app, backend="parallel", workers=workers)
    )


@pytest.fixture(scope="module")
def phold_2w():
    return parallel_run("phold", 2)


@pytest.fixture(scope="module")
def smmp_2w():
    return parallel_run("smmp", 2)


@needs_fork
class TestDifferential:
    def test_phold_two_workers_matches_golden(self, phold_2w):
        assert phold_2w.ok, phold_2w.describe()
        assert phold_2w.committed == phold_2w.expected > 0
        assert phold_2w.digest_match
        assert phold_2w.mismatches == ()

    def test_phold_oracle_armed_and_clean(self, phold_2w):
        assert phold_2w.oracle_checks > 0
        assert phold_2w.violations == ()

    def test_smmp_two_workers_matches_golden(self, smmp_2w):
        assert smmp_2w.ok, smmp_2w.describe()
        assert smmp_2w.committed == smmp_2w.expected > 0

    def test_single_worker_matches_golden(self):
        result = parallel_run("phold", 1)
        assert result.ok, result.describe()
        # one shard: nothing crosses a process boundary, nothing rolls back
        assert result.raw["stats"].rollbacks == 0

    def test_render_mentions_outcome(self, phold_2w):
        text = phold_2w.describe()
        assert text.startswith("PASS phold backend=parallel:2w wire=")
        assert "fastpath=" in text
        assert "oracle check(s)" in text

    def test_golden_is_cached_and_stable(self):
        first = sequential_golden(PHOLD)
        assert sequential_golden(PHOLD) is first
        assert sum(first.per_object.values()) == first.committed > 0
        assert set(first.states) >= set(first.per_object)


@needs_fork
class TestDirectConstruction:
    def test_make_simulation_run_and_run_once(self):
        config = SimulationConfig(
            backend="parallel", workers=2, end_time=PHOLD.end_time
        )
        sim = make_simulation(PHOLD.build_partition(), config)
        assert isinstance(sim, ParallelSimulation)
        stats = sim.run()
        assert stats.committed_events == sequential_golden(PHOLD).committed
        with pytest.raises(ConfigurationError, match="only run once"):
            sim.run()


class TestConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SimulationConfig(backend="distributed").validate()

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SimulationConfig(backend="parallel", workers=0).validate()

    @pytest.mark.parametrize("kwargs,name", [
        ({"record_trace": True}, "record_trace"),
        ({"time_window": 100.0}, "time_window"),
        ({"external_script": [(0.0, "gvt_period", 1.0)]}, "external_script"),
    ])
    def test_modelled_only_features_rejected(self, kwargs, name):
        config = SimulationConfig(backend="parallel", workers=2, **kwargs)
        with pytest.raises(ConfigurationError, match=name):
            config.validate()

    def test_modelled_backend_unchanged(self):
        sim = make_simulation(PHOLD.build_partition(), SimulationConfig())
        assert isinstance(sim, TimeWarpSimulation)


class TestSharding:
    def _partition(self):
        return PHOLD.build_partition()

    def _names(self, partition):
        return [obj.name for group in partition for obj in group]

    def test_shard_map_places_objects(self):
        partition = self._partition()
        names = self._names(partition)
        shard_map = {name: i % 2 for i, name in enumerate(names)}
        sim = ParallelSimulation(
            partition, SimulationConfig(backend="parallel", workers=2),
            shard_map=shard_map,
        )
        for name, shard in shard_map.items():
            assert sim.shard_of(name) == shard

    def test_shard_map_missing_object_rejected(self):
        partition = self._partition()
        with pytest.raises(ConfigurationError, match="missing object"):
            ParallelSimulation(
                partition, SimulationConfig(backend="parallel", workers=2),
                shard_map={},
            )

    def test_shard_map_out_of_range_rejected(self):
        partition = self._partition()
        shard_map = dict.fromkeys(self._names(partition), 5)
        with pytest.raises(ConfigurationError, match="workers=2"):
            ParallelSimulation(
                partition, SimulationConfig(backend="parallel", workers=2),
                shard_map=shard_map,
            )

    def test_empty_shard_rejected(self):
        partition = self._partition()
        shard_map = dict.fromkeys(self._names(partition), 0)
        with pytest.raises(ConfigurationError, match="no objects"):
            ParallelSimulation(
                partition, SimulationConfig(backend="parallel", workers=2),
                shard_map=shard_map,
            )

    def test_empty_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ParallelSimulation(
                [[]], SimulationConfig(backend="parallel", workers=1)
            )

    def test_groups_fold_round_robin_when_counts_differ(self):
        # 3 modelled-LP groups onto 2 workers: groups 0,2 -> shard 0
        partition = self._partition()
        assert len(partition) == 3
        sim = ParallelSimulation(
            partition, SimulationConfig(backend="parallel", workers=2)
        )
        for group_index, group in enumerate(partition):
            for obj in group:
                assert sim.shard_of(obj.name) == group_index % 2


class TestResolveStrategy:
    def test_names_resolve(self):
        for name in ("round_robin", "greedy_growth", "kernighan_lin"):
            assert callable(resolve_strategy(name))

    def test_callable_passes_through(self):
        def custom(graph, n_lps):
            return {}

        assert resolve_strategy(custom) is custom

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown partition"):
            resolve_strategy("metis")
