"""The sharded parallel runtime.

Pins the subsystem's central contract — sharded output is bit-identical
to the serial run at every worker count, for device Monte-Carlo,
importance sampling, circuit-level factory maps and SSTA graph sampling
— plus the streaming accumulators (merge correctness and associativity),
adaptive stopping (including its worker-count invariance), checkpoint
resume, and the executor degradation path for unpicklable tasks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Execution,
    FactoryMap,
    ImportanceSampling,
    MonteCarlo,
    Session,
)
from repro.runtime import (
    FailureAccumulator,
    ParallelExecutor,
    QuantileSketch,
    SerialExecutor,
    StopRule,
    StreamStats,
    TargetAccumulator,
    WeightedFailureAccumulator,
    load_checkpoint,
    plan_shards,
    resolve_executor,
    run_sharded,
    shard_rng,
)
from repro.api.serialize import dumps
from repro.obs import default_registry
from repro.service.store import scrub_envelope
from repro.ssta import GaussianDelay, TimingGraph, monte_carlo_arrival

RTOL = 1e-9


@pytest.fixture()
def session(technology) -> Session:
    return Session(technology=technology, seed=20260101)


def _vt0_metric(params):
    """Module-level (picklable) importance-sampling metric."""
    return np.asarray(params.vt0)


def _vt0_work(factory):
    """Module-level (picklable) factory-map workload."""
    return np.asarray(factory("nmos", 600.0, 40.0).params.vt0)


def _multicolumn_work(factory):
    """Factory-map workload with a (n, 3) output (sample axis first)."""
    vt0 = np.asarray(factory("nmos", 600.0, 40.0).params.vt0)
    return np.stack([vt0, 2.0 * vt0, 3.0 * vt0], axis=1)


class _CountAccumulator:
    """Minimal checkpointable accumulator (state round-trip + count)."""

    def __init__(self, n: int = 0):
        self.n = n

    def state(self):
        return {"n": self.n}

    @classmethod
    def from_state(cls, state):
        return cls(int(state["n"]))


def _count_accumulate(accumulator, payload):
    accumulator.n += int(payload)


# ----------------------------------------------------------------------
# Shard planning.
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_partition_covers_run_exactly(self):
        plan = plan_shards(1000, 128, base_seed=7)
        assert [s.n_samples for s in plan] == [128] * 7 + [104]
        assert plan.shards[0].start == 0
        assert plan.shards[-1].stop == 1000
        assert all(
            a.stop == b.start for a, b in zip(plan.shards, plan.shards[1:])
        )

    def test_none_shard_size_is_single_shard(self):
        plan = plan_shards(500, None, base_seed=7)
        assert plan.n_shards == 1
        assert plan.shards[0].n_samples == 500

    def test_shard_streams_depend_only_on_seed_and_index(self):
        a = plan_shards(1000, 100, base_seed=3).shards[4]
        b = plan_shards(2000, 100, base_seed=3).shards[4]
        np.testing.assert_array_equal(
            a.rng().standard_normal(8), b.rng().standard_normal(8)
        )
        np.testing.assert_array_equal(
            shard_rng(3, 4).standard_normal(8), a.rng().standard_normal(8)
        )

    def test_distinct_shards_get_distinct_streams(self):
        plan = plan_shards(256, 64, base_seed=11)
        draws = [s.rng().standard_normal(4) for s in plan]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_invalid_plans_raise(self):
        with pytest.raises(ValueError):
            plan_shards(0, 10, base_seed=0)
        with pytest.raises(ValueError):
            plan_shards(10, 0, base_seed=0)


# ----------------------------------------------------------------------
# Streaming accumulators.
# ----------------------------------------------------------------------
class TestStreamStats:
    def test_matches_numpy_reductions(self, rng):
        values = rng.standard_normal(501)
        acc = StreamStats()
        for chunk in np.array_split(values, 7):
            acc.update(chunk)
        assert acc.n == 501
        assert acc.mean == pytest.approx(np.mean(values), rel=RTOL)
        assert acc.std() == pytest.approx(np.std(values, ddof=1), rel=RTOL)
        assert acc.min == np.min(values)
        assert acc.max == np.max(values)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_merge_is_associative_and_exactly_reduces(self, chunks):
        def stats_of(chunk):
            acc = StreamStats()
            acc.update(np.asarray(chunk))
            return acc

        left = stats_of(chunks[0]).merge(stats_of(chunks[1])).merge(stats_of(chunks[2]))
        right = stats_of(chunks[0]).merge(stats_of(chunks[1]).merge(stats_of(chunks[2])))
        everything = np.concatenate([np.asarray(ch) for ch in chunks])
        assert left.n == right.n == everything.size
        assert left.mean == pytest.approx(right.mean, rel=1e-9, abs=1e-9)
        assert left.m2 == pytest.approx(right.m2, rel=1e-7, abs=1e-6)
        assert left.mean == pytest.approx(float(np.mean(everything)),
                                          rel=1e-9, abs=1e-9)
        assert left.min == float(np.min(everything))
        assert left.max == float(np.max(everything))

    def test_state_roundtrip(self, rng):
        acc = StreamStats().update(rng.standard_normal(32))
        clone = StreamStats.from_state(acc.state())
        assert clone.state() == acc.state()


class TestFailureAccumulator:
    def test_merge_matches_batch_formulas(self, rng):
        weights = rng.exponential(size=400)
        fails = rng.random(400) < 0.2
        contrib = weights * fails

        merged = FailureAccumulator()
        for idx in range(4):
            part = FailureAccumulator().update(
                fails[idx * 100:(idx + 1) * 100],
                weights[idx * 100:(idx + 1) * 100],
            )
            merged.merge(part)
        assert merged.n_samples == 400
        assert merged.n_fail == int(np.count_nonzero(fails))
        assert merged.probability == pytest.approx(np.mean(contrib), rel=RTOL)
        assert merged.std_error == pytest.approx(
            np.std(contrib, ddof=1) / np.sqrt(400), rel=1e-7
        )

    def test_zero_failures_relative_error_is_inf(self):
        acc = FailureAccumulator().update(np.zeros(100, dtype=bool))
        assert acc.probability == 0.0
        assert acc.relative_error() == np.inf


#: One weighted-failure sample: (importance weight, fail flag, sigma
#: deviation).  Weights stay non-negative like real density ratios.
_WEIGHTED_SAMPLE = st.tuples(
    st.floats(0.0, 1e3, allow_nan=False),
    st.booleans(),
    st.floats(-6.0, 6.0, allow_nan=False),
)


def _weighted_acc(chunk) -> WeightedFailureAccumulator:
    weights = np.asarray([w for w, _, _ in chunk], dtype=float)
    fails = np.asarray([f for _, f, _ in chunk], dtype=bool)
    x = np.asarray([x for _, _, x in chunk], dtype=float)
    return WeightedFailureAccumulator().update(
        fails, weights, deviations={"vt0": x}
    )


class TestWeightedFailureAccumulator:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=30),
                    min_size=3, max_size=3))
    def test_merge_is_associative(self, chunks):
        a, b, c = chunks
        left = _weighted_acc(a).merge(_weighted_acc(b)).merge(_weighted_acc(c))
        right = _weighted_acc(a).merge(_weighted_acc(b).merge(_weighted_acc(c)))
        assert left.n_samples == right.n_samples
        assert left.n_fail == right.n_fail
        assert left.probability == pytest.approx(right.probability,
                                                 rel=1e-9, abs=1e-12)
        assert left.sum_w == pytest.approx(right.sum_w, rel=1e-9, abs=1e-12)
        assert left.sum_w2 == pytest.approx(right.sum_w2, rel=1e-9, abs=1e-12)
        assert left.fail_w == pytest.approx(right.fail_w, rel=1e-9, abs=1e-12)
        assert left.fail_wx.get("vt0", 0.0) == pytest.approx(
            right.fail_wx.get("vt0", 0.0), rel=1e-9, abs=1e-12
        )
        assert left.fail_wx2.get("vt0", 0.0) == pytest.approx(
            right.fail_wx2.get("vt0", 0.0), rel=1e-9, abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=30),
                    min_size=2, max_size=4))
    def test_shard_merge_matches_single_stream_fold(self, chunks):
        # Shard-local accumulators merged in shard order must equal one
        # accumulator folding the same chunks sequentially — the
        # identity that makes the runtime's reduce worker-count
        # invariant.
        merged = WeightedFailureAccumulator()
        for chunk in chunks:
            merged.merge(_weighted_acc(chunk))
        folded = WeightedFailureAccumulator()
        for chunk in chunks:
            folded.update(
                np.asarray([f for _, f, _ in chunk], dtype=bool),
                np.asarray([w for w, _, _ in chunk], dtype=float),
                deviations={"vt0": np.asarray([x for _, _, x in chunk])},
            )
        assert merged.n_samples == folded.n_samples
        assert merged.n_fail == folded.n_fail
        assert merged.probability == pytest.approx(folded.probability,
                                                   rel=1e-9, abs=1e-12)
        assert merged.fail_w == pytest.approx(folded.fail_w,
                                              rel=1e-9, abs=1e-12)
        assert merged.fail_wx.get("vt0", 0.0) == pytest.approx(
            folded.fail_wx.get("vt0", 0.0), rel=1e-9, abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=30),
                    min_size=1, max_size=4))
    def test_merged_ess_matches_kish_formula(self, chunks):
        merged = WeightedFailureAccumulator()
        for chunk in chunks:
            merged.merge(_weighted_acc(chunk))
        weights = np.asarray([w for chunk in chunks for w, _, _ in chunk])
        sum_w2 = float(np.sum(weights**2))
        if sum_w2 == 0.0:
            assert merged.effective_samples == 0.0
        else:
            assert merged.effective_samples == pytest.approx(
                float(np.sum(weights)) ** 2 / sum_w2, rel=1e-9
            )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=60))
    def test_shift_estimate_is_weighted_failure_centroid(self, chunk):
        acc = _weighted_acc(chunk)
        weights = np.asarray([w for w, _, _ in chunk], dtype=float)
        fails = np.asarray([f for _, f, _ in chunk], dtype=bool)
        x = np.asarray([x for _, _, x in chunk], dtype=float)
        mass = float(np.sum(weights[fails]))
        if mass <= 0.0:
            assert acc.shift_estimate() == {}
        else:
            assert acc.shift_estimate()["vt0"] == pytest.approx(
                float(np.sum(weights[fails] * x[fails])) / mass,
                rel=1e-9, abs=1e-12,
            )

    def test_probability_path_identical_to_plain_accumulator(self, rng):
        # The inherited estimate must be bit-identical to
        # FailureAccumulator for the same update sequence — the property
        # behind the Yield zero-round == ImportanceSampling identity.
        weights = rng.exponential(size=300)
        fails = rng.random(300) < 0.3
        x = rng.standard_normal(300)
        plain = FailureAccumulator()
        weighted = WeightedFailureAccumulator()
        for lo in range(0, 300, 100):
            plain.update(fails[lo:lo + 100], weights[lo:lo + 100])
            weighted.update(fails[lo:lo + 100], weights[lo:lo + 100],
                            deviations={"vt0": x[lo:lo + 100]})
        assert weighted.probability == plain.probability
        assert weighted.std_error == plain.std_error
        assert weighted.effective_samples == plain.effective_samples
        assert weighted.n_fail == plain.n_fail

    def test_state_roundtrip(self, rng):
        acc = WeightedFailureAccumulator().update(
            rng.random(64) < 0.25,
            rng.exponential(size=64),
            deviations={"vt0": rng.standard_normal(64),
                        "leff": rng.standard_normal(64)},
        )
        clone = WeightedFailureAccumulator.from_state(acc.state())
        assert clone.state() == acc.state()
        assert clone.shift_estimate() == acc.shift_estimate()


class TestQuantileSketch:
    def test_exact_below_capacity(self, rng):
        values = rng.standard_normal(100)
        sketch = QuantileSketch(k=256).update(values)
        assert sketch.query(0.5) == pytest.approx(
            np.quantile(values, 0.5, method="inverted_cdf"), abs=1e-12
        )

    def test_rank_error_bounded_after_compaction(self, rng):
        values = rng.standard_normal(20000)
        sketch = QuantileSketch(k=128)
        for chunk in np.array_split(values, 37):
            sketch.update(chunk)
        assert sketch.count == values.size
        for q in (0.1, 0.5, 0.9, 0.99):
            estimate = sketch.query(q)
            # Rank of the estimate must be within a few k-ths of q.
            rank = np.mean(values <= estimate)
            assert abs(rank - q) < 0.05

    def test_merge_preserves_count_and_accuracy(self, rng):
        values = rng.standard_normal(8000)
        parts = np.array_split(values, 3)
        sketches = [QuantileSketch(k=128).update(p) for p in parts]
        left = QuantileSketch(k=128)
        left.merge(sketches[0]).merge(sketches[1]).merge(sketches[2])
        assert left.count == values.size
        for q in (0.25, 0.75):
            rank = np.mean(values <= left.query(q))
            assert abs(rank - q) < 0.05

    def test_state_roundtrip(self, rng):
        sketch = QuantileSketch(k=64).update(rng.standard_normal(1000))
        clone = QuantileSketch.from_state(sketch.state())
        assert clone.query(0.5) == sketch.query(0.5)
        assert clone.count == sketch.count


# ----------------------------------------------------------------------
# Bit-identity across worker counts (the headline contract).
# ----------------------------------------------------------------------
class TestWorkerCountInvariance:
    WORKER_COUNTS = (1, 2, 8)

    def test_montecarlo_spec_bitwise_identical(self, session):
        spec_of = lambda w: MonteCarlo(
            n_samples=600, w_nm=600.0, seed_offset=5,
            execution=Execution(shard_size=128, workers=w),
        )
        results = {}
        for workers in self.WORKER_COUNTS:
            results[workers] = session.run(spec_of(workers)).payload
        reference = results[1]
        for workers in self.WORKER_COUNTS[1:]:
            for target in reference.samples:
                np.testing.assert_array_equal(
                    results[workers].samples[target],
                    reference.samples[target],
                    err_msg=f"{target} differs at {workers} workers",
                )

    def test_importance_spec_bitwise_identical(self, session, technology):
        model = technology["nmos"].statistical
        sigma_vt = model.sigmas(600.0, 40.0)["vt0"]
        threshold = float(np.asarray(model.nominal.vt0)) + 3.0 * sigma_vt
        spec_of = lambda w: ImportanceSampling(
            metric=_vt0_metric, threshold=threshold, shifts={"vt0": 3.0},
            n_samples=2000, w_nm=600.0, l_nm=40.0, fail_below=False,
            execution=Execution(shard_size=500, workers=w),
        )
        estimates = [
            session.run(spec_of(w)).payload for w in self.WORKER_COUNTS
        ]
        for estimate in estimates[1:]:
            assert estimate.probability == estimates[0].probability
            assert estimate.std_error == estimates[0].std_error
            assert estimate.effective_samples == estimates[0].effective_samples

    def test_factory_map_bitwise_identical(self, session):
        values = {}
        for workers in self.WORKER_COUNTS:
            values[workers], info = session.map_mc(
                _vt0_work, 512, seed_offset=9,
                execution=Execution(shard_size=128, workers=workers),
            )
            assert info.n_shards == 4
        np.testing.assert_array_equal(values[1], values[2])
        np.testing.assert_array_equal(values[1], values[8])

    def test_graph_arrival_bitwise_identical(self):
        graph = TimingGraph.parallel_chains(
            [[GaussianDelay(10e-12, 1e-12)] * 2 for _ in range(3)]
        )
        outs = [
            monte_carlo_arrival(
                graph, "src", "snk", 1500,
                execution=Execution(shard_size=500, workers=w),
                base_seed=77,
            )
            for w in self.WORKER_COUNTS
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_default_shard_size_is_worker_independent(self, session):
        # Regression: with shard_size unset, the partition must come
        # from the automatic batch-economics sizing, never from the
        # worker count — Execution(workers=1) and Execution(workers=2)
        # share one stream.
        from repro.runtime.sharding import auto_shard_size

        results = {
            w: session.run(MonteCarlo(
                n_samples=2000, w_nm=600.0, seed_offset=3,
                execution=Execution(workers=w),
            ))
            for w in (1, 2)
        }
        assert results[1].runtime.shard_size == results[2].runtime.shard_size
        assert results[1].runtime.shard_size == auto_shard_size(2000) == 200
        assert results[1].runtime.n_shards == 10     # 2000 / auto 200
        np.testing.assert_array_equal(
            results[1].payload.samples["idsat"],
            results[2].payload.samples["idsat"],
        )

    def test_explicit_one_worker_session_matches_two(self, technology):
        # Regression: `--workers 1` (Session(executor=1)) must draw the
        # same stream as `--workers 2` — the worker count never picks
        # the stream.
        results = {}
        for workers in (1, 2):
            s = Session(technology=technology, seed=20260101,
                        executor=workers)
            try:
                results[workers] = s.run(MonteCarlo(n_samples=1500,
                                                    w_nm=600.0))
            finally:
                s.close()
        assert results[1].runtime is not None
        assert results[2].runtime is not None
        np.testing.assert_array_equal(
            results[1].payload.samples["idsat"],
            results[2].payload.samples["idsat"],
        )

    def test_experiment_numbers_do_not_depend_on_the_executor(
            self, technology):
        # The CLI surface of the one seed contract: `fig3 --quick` with
        # and without `--workers 1` prints the same payload.
        payloads = []
        for executor in (None, 1):
            with Session(technology=technology, executor=executor) as s:
                result = s.run_experiment("fig3", quick=True,
                                          widths_nm=(300.0, 1000.0))
            payloads.append(result.payload)
        np.testing.assert_array_equal(payloads[0].total_mc,
                                      payloads[1].total_mc)

    @pytest.mark.parametrize("kind", ["MonteCarlo", "ImportanceSampling",
                                      "FactoryMap"])
    def test_one_stream_with_or_without_an_executor(self, technology, kind):
        # One seed contract: a plain Session() draws the same sharded
        # stream as Session(executor=1) and Session(executor=2) — the
        # executor (or its absence) never picks the draw.
        model = technology["nmos"].statistical
        specs = {
            "MonteCarlo": MonteCarlo(n_samples=450, w_nm=600.0,
                                     seed_offset=2),
            "ImportanceSampling": ImportanceSampling(
                metric=_vt0_metric,
                threshold=float(np.asarray(model.nominal.vt0))
                + 3.0 * model.sigmas(600.0, 40.0)["vt0"],
                shifts={"vt0": 3.0}, n_samples=450, w_nm=600.0, l_nm=40.0,
                fail_below=False, seed_offset=2,
            ),
            "FactoryMap": FactoryMap(work=_vt0_work, n_samples=450,
                                     seed_offset=2),
        }
        payloads = {}
        for executor in (None, 1, 2):
            with Session(technology=technology, seed=20260101,
                         executor=executor) as s:
                result = s.run(specs[kind])
            assert result.runtime is not None
            assert result.runtime.n_shards == 3     # 450 / auto 200
            payloads[executor] = result.payload
        for executor in (1, 2):
            if kind == "MonteCarlo":
                for target, values in payloads[None].samples.items():
                    np.testing.assert_array_equal(
                        values, payloads[executor].samples[target])
            elif kind == "ImportanceSampling":
                assert payloads[executor] == payloads[None]
            else:
                np.testing.assert_array_equal(payloads[None],
                                              payloads[executor])


# ----------------------------------------------------------------------
# Executors.
# ----------------------------------------------------------------------
class TestExecutors:
    def test_resolve(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        parallel = resolve_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 3
        assert resolve_executor(parallel) is parallel
        parallel.close()

    def test_unpicklable_task_degrades_to_identical_serial(self, session,
                                                           technology):
        model = technology["nmos"].statistical
        sigma_vt = model.sigmas(600.0, 40.0)["vt0"]
        threshold = float(np.asarray(model.nominal.vt0)) + 3.0 * sigma_vt
        base = dict(
            threshold=threshold, shifts={"vt0": 3.0}, n_samples=1000,
            w_nm=600.0, l_nm=40.0, fail_below=False,
        )
        execution = Execution(shard_size=250, workers=2)
        picklable = session.run(ImportanceSampling(
            metric=_vt0_metric, execution=execution, **base))
        closure = session.run(ImportanceSampling(
            metric=lambda params: np.asarray(params.vt0),
            execution=execution, **base))
        assert closure.runtime.degraded is not None
        assert picklable.runtime.degraded is None
        assert closure.payload.probability == picklable.payload.probability


# ----------------------------------------------------------------------
# Adaptive stopping.
# ----------------------------------------------------------------------
class TestAdaptiveStopping:
    def test_sigma_rule_stops_early_and_worker_invariant(self, session):
        execution_of = lambda w: Execution(
            shard_size=200, workers=w, target_rel_err=0.05, wave_size=1,
        )
        results = [
            session.run(MonteCarlo(n_samples=20000, w_nm=600.0,
                                   execution=execution_of(w)))
            for w in (1, 2)
        ]
        for result in results:
            assert result.runtime.stopped_early
            # 1/sqrt(2(n-1)) <= 0.05 needs n >= 201 -> exactly 2 waves.
            assert result.runtime.shards_run == 2
            assert result.n_samples == 400
        np.testing.assert_array_equal(
            results[0].payload.samples["idsat"],
            results[1].payload.samples["idsat"],
        )

    def test_sample_cap(self, session):
        result = session.run(MonteCarlo(
            n_samples=5000, w_nm=600.0,
            execution=Execution(shard_size=100, max_samples=300, wave_size=1),
        ))
        assert result.runtime.stopped_early
        assert result.n_samples == 300
        assert "cap" in result.runtime.stop_reason

    def test_sample_accounting_counts_rows_not_elements(self, session):
        # Regression: a (n, 3) work output must count n samples toward
        # min/max_samples, not 3n — the cap here permits 600 samples and
        # must not fire after 200.
        values, info = session.map_mc(
            _multicolumn_work, 1000, seed_offset=9,
            execution=Execution(shard_size=100, wave_size=1,
                                max_samples=600),
        )
        assert values.shape == (600, 3)
        assert info.n_samples == 600

    def test_min_samples_floor(self, session):
        result = session.run(MonteCarlo(
            n_samples=3000, w_nm=600.0,
            execution=Execution(shard_size=100, target_rel_err=0.2,
                                min_samples=900, wave_size=1),
        ))
        # rel err 0.2 is met after ~14 samples; the floor forces 900.
        assert result.n_samples >= 900

    def test_probability_rule_keeps_sampling_with_zero_failures(
            self, session, technology):
        model = technology["nmos"].statistical
        # Unreachable threshold: no failures ever, relative error stays
        # inf, so only the cap stops the run.
        threshold = float(np.asarray(model.nominal.vt0)) - 1.0
        result = session.run(ImportanceSampling(
            metric=_vt0_metric, threshold=threshold, shifts={"vt0": 2.0},
            n_samples=2000, w_nm=600.0, l_nm=40.0, fail_below=True,
            execution=Execution(shard_size=100, target_rel_err=0.5,
                                max_samples=500, wave_size=1),
        ))
        assert result.payload.probability == 0.0
        assert result.payload.relative_error == np.inf
        assert result.n_samples == 500
        assert "cap" in result.runtime.stop_reason

    def test_stop_rule_validation(self):
        with pytest.raises(ValueError):
            StopRule(metric="nonsense")
        with pytest.raises(ValueError):
            StopRule(target_rel_err=-1.0)
        with pytest.raises(ValueError):
            Execution(workers=0)
        with pytest.raises(ValueError):
            Execution(shard_size=-5)

    def test_session_rejects_nonpositive_workers(self, technology):
        with pytest.raises(ValueError, match=">= 1"):
            Session(technology=technology, executor=0)


# ----------------------------------------------------------------------
# Checkpoint / resume.
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_resume_is_bit_identical_to_uninterrupted(self, session,
                                                      tmp_path):
        prefix = str(tmp_path / "mc.ckpt")
        shard = Execution(shard_size=100, wave_size=1)
        # Phase 1: run the first 300 samples, then "crash".
        partial = session.run(MonteCarlo(
            n_samples=1000, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=1,
                                max_samples=300, checkpoint=prefix),
        ))
        assert partial.runtime.stopped_early
        files = sorted(tmp_path.glob("mc.ckpt.*.ckpt"))
        assert len(files) == 1
        assert load_checkpoint(str(files[0])).shards_done == 3
        # Phase 2: resume to completion.
        resumed = session.run(MonteCarlo(
            n_samples=1000, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=1,
                                checkpoint=prefix),
        ))
        assert resumed.runtime.resumed_shards == 3
        uninterrupted = session.run(MonteCarlo(
            n_samples=1000, w_nm=600.0, seed_offset=4, execution=shard,
        ))
        np.testing.assert_array_equal(
            resumed.payload.samples["idsat"],
            uninterrupted.payload.samples["idsat"],
        )

    def test_distinct_workloads_share_a_prefix_without_collision(
            self, session, tmp_path):
        # Regression: multi-stage experiments hand every stage one
        # checkpoint prefix.  Different workloads (models, seeds) must
        # land in distinct files — no crash, no cross-resume — and a
        # completed run must short-circuit on rerun.
        prefix = str(tmp_path / "stages.ckpt")
        spec_of = lambda model, offset: MonteCarlo(
            n_samples=300, w_nm=600.0, seed_offset=offset, model=model,
            execution=Execution(shard_size=100, checkpoint=prefix),
        )
        vs_run = session.run(spec_of("vs", 4))
        bsim_run = session.run(spec_of("bsim", 4))
        other_seed = session.run(spec_of("vs", 5))
        assert len(list(tmp_path.glob("stages.ckpt.*.ckpt"))) == 3
        assert not np.array_equal(vs_run.payload.samples["idsat"],
                                  bsim_run.payload.samples["idsat"])
        # Rerun of a completed stage restores all shards from disk.
        rerun = session.run(spec_of("vs", 4))
        assert rerun.runtime.resumed_shards == 3
        np.testing.assert_array_equal(rerun.payload.samples["idsat"],
                                      vs_run.payload.samples["idsat"])
        assert other_seed.runtime.resumed_shards == 0

    def test_multistage_experiment_with_checkpoint_prefix(self, session,
                                                          tmp_path):
        # Regression: fig3 runs one sharded MC per width; with a shared
        # checkpoint prefix every width must checkpoint independently.
        from repro.experiments.fig3_idsat_mismatch import run as fig3_run

        result = fig3_run(
            widths_nm=(120.0, 300.0), n_samples=200, session=session,
            execution=Execution(shard_size=100,
                                checkpoint=str(tmp_path / "fig3.ckpt")),
        )
        assert result.total_mc.shape == (2,)
        assert len(list(tmp_path.glob("fig3.ckpt.*.ckpt"))) == 2

    def test_polarity_and_mode_get_distinct_checkpoints(self, session,
                                                        tmp_path):
        # The content-hash fingerprint must discriminate workload
        # parameters beyond geometry/model — here polarity at otherwise
        # identical specs (the nmos/pmos collision a name-only label
        # would miss).
        prefix = str(tmp_path / "pol.ckpt")
        spec_of = lambda polarity: MonteCarlo(
            n_samples=300, w_nm=600.0, seed_offset=4, polarity=polarity,
            execution=Execution(shard_size=100, checkpoint=prefix),
        )
        nmos = session.run(spec_of("nmos"))
        pmos = session.run(spec_of("pmos"))
        assert len(list(tmp_path.glob("pol.ckpt.*.ckpt"))) == 2
        assert not np.array_equal(nmos.payload.samples["idsat"],
                                  pmos.payload.samples["idsat"])

    def test_corrupted_checkpoint_task_is_rejected(self, session, tmp_path):
        # A checkpoint whose stored task disagrees with the filename
        # fingerprint (corruption, hand-editing) must refuse to resume
        # rather than silently feed foreign payloads.
        from dataclasses import replace

        from repro.runtime import save_checkpoint

        prefix = str(tmp_path / "mc.ckpt")
        execution = Execution(shard_size=100, wave_size=1, max_samples=100,
                              checkpoint=prefix)
        session.run(MonteCarlo(n_samples=400, w_nm=600.0, seed_offset=4,
                               execution=execution))
        (path,) = tmp_path.glob("mc.ckpt.*.ckpt")
        checkpoint = load_checkpoint(str(path))
        save_checkpoint(str(path), replace(checkpoint,
                                           task="some-other-workload"))
        with pytest.raises(ValueError, match="different run"):
            session.run(MonteCarlo(
                n_samples=400, w_nm=600.0, seed_offset=4,
                execution=Execution(shard_size=100, wave_size=1,
                                    checkpoint=prefix),
            ))

    @pytest.mark.parametrize("damage", ["truncated", "garbage",
                                        "wrong_magic"])
    def test_unreadable_checkpoint_is_a_clean_counted_restart(
            self, session, tmp_path, damage):
        # A torn write, disk garbage or a foreign pickle must not wedge
        # every rerun of the spec: the file is discarded (logged and
        # counted) and the run restarts from zero, which reproduces the
        # uninterrupted envelope because every shard stream is
        # deterministic.
        spec = MonteCarlo(
            n_samples=400, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=1,
                                checkpoint=str(tmp_path / "mc.ckpt")),
        )
        uninterrupted = session.run(spec)
        (path,) = tmp_path.glob("mc.ckpt.*.ckpt")
        blob = path.read_bytes()
        path.write_bytes({
            "truncated": blob[:len(blob) // 2],
            "garbage": b"\x80\x05not a checkpoint" * 16,
            "wrong_magic": pickle.dumps({"magic": "other", "checkpoint": 1}),
        }[damage])
        corrupt = default_registry().counter("repro_checkpoint_corrupt_total")
        before = corrupt.value

        rerun = session.run(spec)
        assert corrupt.value == before + 1
        assert rerun.runtime.resumed_shards == 0
        assert dumps(scrub_envelope(rerun)) == dumps(
            scrub_envelope(uninterrupted))
        # The restarted run left a sound checkpoint behind.
        assert load_checkpoint(str(path)).shards_done == 4

    def test_checkpointing_refuses_unpicklable_tasks(self, session,
                                                     technology, tmp_path):
        # A closure metric cannot be content-fingerprinted; silently
        # falling back to a type-name label would let same-type
        # workloads adopt each other's checkpoints, so refuse loudly.
        model = technology["nmos"].statistical
        threshold = float(np.asarray(model.nominal.vt0))
        with pytest.raises(ValueError, match="picklable"):
            session.run(ImportanceSampling(
                metric=lambda params: np.asarray(params.vt0),
                threshold=threshold, shifts={"vt0": 2.0}, n_samples=300,
                w_nm=600.0, l_nm=40.0,
                execution=Execution(shard_size=100,
                                    checkpoint=str(tmp_path / "is.ckpt")),
            ))

    def test_changed_wave_size_starts_fresh(self, session, tmp_path):
        # Adaptive-stopping boundaries depend on the wave size, so a
        # resume under a different wave_size must not adopt the old
        # state (it could stop where no uninterrupted run would).
        prefix = str(tmp_path / "mc.ckpt")
        session.run(MonteCarlo(
            n_samples=600, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=1,
                                max_samples=200, checkpoint=prefix),
        ))
        rerun = session.run(MonteCarlo(
            n_samples=600, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=2,
                                max_samples=200, checkpoint=prefix),
        ))
        assert rerun.runtime.resumed_shards == 0
        assert len(list(tmp_path.glob("mc.ckpt.*.ckpt"))) == 2


# ----------------------------------------------------------------------
# Runner plumbing and envelope metadata.
# ----------------------------------------------------------------------
class TestRunnerAndEnvelope:
    def test_stop_without_accumulator_raises(self):
        plan = plan_shards(100, 10, base_seed=0)
        with pytest.raises(ValueError, match="accumulate"):
            run_sharded(lambda s: s.n_samples, plan, SerialExecutor(),
                        stop=StopRule(max_samples=50))

    def test_runtime_metadata_serializes(self, session):
        result = session.run(MonteCarlo(
            n_samples=300, w_nm=600.0,
            execution=Execution(shard_size=100, workers=2),
        ))
        import json

        blob = json.loads(result.to_json(include_payload=False))
        assert blob["runtime"]["workers"] == 2
        assert blob["runtime"]["n_shards"] == 3
        assert blob["runtime"]["executor"] == "process-pool"
        assert blob["meta"]["streamed_sigmas"]["idsat"] > 0.0

    def test_streamed_sigma_matches_materialized(self, session):
        result = session.run(MonteCarlo(
            n_samples=600, w_nm=600.0, execution=Execution(shard_size=128),
        ))
        streamed = result.meta["streamed_sigmas"]["idsat"]
        assert streamed == pytest.approx(result.payload.sigma("idsat"),
                                         rel=1e-9)

    def test_session_default_execution_from_workers(self, technology):
        parallel = Session(technology=technology, executor=2, shard_size=128)
        try:
            serial_sharded = Session(technology=technology, shard_size=128)
            a = parallel.run(MonteCarlo(n_samples=300, w_nm=600.0))
            b = serial_sharded.run(MonteCarlo(n_samples=300, w_nm=600.0))
            assert a.runtime.workers == 2
            assert b.runtime.workers == 1
            np.testing.assert_array_equal(
                a.payload.samples["idsat"], b.payload.samples["idsat"]
            )
        finally:
            parallel.close()


# ----------------------------------------------------------------------
# TargetAccumulator (streamed MC statistics).
# ----------------------------------------------------------------------
class TestTargetAccumulator:
    def test_update_and_merge_track_per_target_stats(self, rng):
        samples_a = {"idsat": rng.standard_normal(200),
                     "cgg": rng.standard_normal(200)}
        samples_b = {"idsat": rng.standard_normal(300),
                     "cgg": rng.standard_normal(300)}
        left = TargetAccumulator().update(samples_a)
        right = TargetAccumulator().update(samples_b)
        left.merge(right)
        everything = np.concatenate([samples_a["idsat"], samples_b["idsat"]])
        assert left.n_samples == 500
        assert left.stats["idsat"].std() == pytest.approx(
            np.std(everything, ddof=1), rel=1e-9
        )
        assert np.isfinite(left.sigma_relative_error())
        roundtrip = TargetAccumulator.from_state(left.state())
        assert roundtrip.stats["idsat"].state() == left.stats["idsat"].state()
