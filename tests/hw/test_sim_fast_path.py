"""The simulator's one event loop vs the reference implementation.

``Simulator.run`` keeps a per-processor heap of static keys for policies
whose order is fixed before the run, evaluates a declared Eq. 5 rule on
its own arrays for the out-of-order policies, and calls ``select`` for
everything else; :class:`ReferenceSimulator` keeps the original
per-event implementation verbatim.  These tests pin
the only property that makes the speedup legitimate: *every* policy, on
*every* graph shape — random, synthetic and real prefill DAGs — produces
a byte-identical trace from both simulators, including error paths.
"""

import numpy as np
import pytest

from repro import QWEN15_18B, REDMI_K70_PRO, LlmNpuEngine
from repro.core.pipeline import lower_prefill, run_prefill
from repro.core.scheduler import (
    POLICIES,
    ChunkOrderPolicy,
    HeadOfLinePolicy,
    LatencyGreedyPolicy,
    NormalizedOooPolicy,
    OutOfOrderPolicy,
    get_policy,
)
from repro.errors import DependencyError, SchedulingError
from repro.eval.simbench import SIM_SCENARIOS, synthetic_task_graph
from repro.hw.sim import (
    FifoPolicy,
    ReferenceSimulator,
    SchedulingPolicy,
    Simulator,
    Task,
    TaskColumns,
)
from repro.obs.whatif import capture_engine_run

POLICY_CLASSES = [
    FifoPolicy,
    OutOfOrderPolicy,
    NormalizedOooPolicy,
    LatencyGreedyPolicy,
    ChunkOrderPolicy,
    HeadOfLinePolicy,
]

PROCS = ["cpu", "npu", "dsp"]


def random_graph(seed: int, n_tasks: int = 60):
    """A random dependency DAG with policy-relevant tags and durations."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        n_deps = int(rng.integers(0, min(i, 3) + 1)) if i else 0
        deps = tuple(sorted({
            f"t{int(j)}" for j in rng.integers(0, i, size=n_deps)
        })) if n_deps else ()
        tasks.append(Task(
            task_id=f"t{i}",
            proc=PROCS[int(rng.integers(0, len(PROCS)))],
            duration_s=float(rng.choice(
                [0.0, 1e-4, 1e-4, rng.uniform(1e-5, 2e-3)]
            )),
            deps=deps,
            tag=f"tag{i % 4}",
            chunk=int(rng.integers(0, 4)),
            subgraph=int(rng.integers(0, 6)),
            ops=float(rng.integers(0, 1000)),
        ))
    return tasks


class TestTraceEquivalence:
    @pytest.mark.parametrize("policy_cls", POLICY_CLASSES,
                             ids=lambda p: p.__name__)
    def test_random_graphs_match_reference(self, policy_cls):
        for seed in range(10):
            tasks = random_graph(seed)
            fast = Simulator(PROCS).run(tasks, policy_cls())
            ref = ReferenceSimulator(PROCS).run(tasks, policy_cls())
            assert fast.events == ref.events, (
                f"{policy_cls.__name__} diverged on graph seed {seed}"
            )

    @pytest.mark.parametrize("scenario", SIM_SCENARIOS,
                             ids=lambda s: s.name)
    def test_benchmark_scenarios_match_reference(self, scenario):
        # The exact graphs the self-benchmark times must also agree —
        # the measured speedup is meaningless otherwise.
        procs, tasks = synthetic_task_graph(scenario)
        fast = Simulator(procs).run(tasks, FifoPolicy())
        ref = ReferenceSimulator(procs).run(tasks, FifoPolicy())
        assert fast.events == ref.events

    def test_duplicate_duration_co_terminators(self):
        # Many tasks finishing at the same instant exercises the
        # co-terminator drain order on both paths.
        tasks = [Task(f"t{i}", PROCS[i % 3], 1e-3) for i in range(12)]
        tasks += [Task(f"d{i}", PROCS[i % 3], 1e-3,
                       deps=(f"t{i}", f"t{(i + 1) % 12}"))
                  for i in range(12)]
        fast = Simulator(PROCS).run(tasks, FifoPolicy())
        ref = ReferenceSimulator(PROCS).run(tasks, FifoPolicy())
        assert fast.events == ref.events

    def test_duplicate_deps_tuple(self):
        # A repeated dependency counts once per occurrence in Eq. 5's
        # remaining-dependency test (SimContext.remaining_deps), so n1
        # (deps a, a) is not unlocked by a alone: with distinct counts
        # the ooo policies would run a before b and diverge.  Readiness
        # must still wait for every occurrence to finish.
        graphs = [
            [
                Task("a", "cpu", 1e-4),
                Task("b", "npu", 1e-4, deps=("a", "a")),
                Task("c", "cpu", 1e-4, deps=("b", "a", "b")),
                Task("d", "cpu", 2e-4),
            ],
            [
                Task("a", "cpu", 1.0),
                Task("b", "cpu", 1.0),
                Task("n1", "npu", 5.0, deps=("a", "a")),
                Task("n2", "npu", 1.0, deps=("b",)),
                Task("z", "npu", 0.5),
            ],
        ]
        for policy_cls in POLICY_CLASSES:
            for tasks in graphs:
                fast = Simulator(PROCS).run(tasks, policy_cls())
                ref = ReferenceSimulator(PROCS).run(tasks, policy_cls())
                assert fast.events == ref.events, (
                    policy_cls.__name__, [t.task_id for t in tasks])

    def test_equal_keys_run_in_ready_order(self):
        # A static key need not be unique: ties resolve in the order the
        # tasks became ready, as the reference's min() over its ready
        # list does.
        class ByTag(SchedulingPolicy):
            def key(self, task, index):
                return task.tag

        for seed in range(5):
            tasks = random_graph(seed)
            fast = Simulator(PROCS).run(tasks, ByTag())
            ref = ReferenceSimulator(PROCS).run(tasks, ByTag())
            assert fast.events == ref.events, f"graph seed {seed}"

    def test_head_of_line_blocks_ready_successors(self):
        # The cpu queue's head waits on the npu while two later cpu
        # tasks are ready: in-order idles the cpu until the head can run,
        # where chunk-order (same program order) skips ahead.
        tasks = [
            Task("x", "npu", 2.0),
            Task("head", "cpu", 1.0, deps=("x",)),
            Task("r1", "cpu", 1.0),
            Task("r2", "cpu", 1.0),
        ]
        fast = Simulator(PROCS).run(tasks, HeadOfLinePolicy())
        ref = ReferenceSimulator(PROCS).run(tasks, HeadOfLinePolicy())
        assert fast.events == ref.events
        assert [(e.task_id, e.start_s) for e in fast.events_on("cpu")] == [
            ("head", 2.0), ("r1", 3.0), ("r2", 4.0),
        ]
        skip = Simulator(PROCS).run(tasks, ChunkOrderPolicy())
        assert skip.order_on("cpu") == ["r1", "r2", "head"]


@pytest.fixture(scope="module")
def qwen_engine():
    return LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)


def assert_lanes_regroup_events(trace):
    # Each lane is its processor's events in start order, as a stable
    # sort of the dispatch-ordered events gives them.
    assert trace.lanes == {proc: tuple(trace.events_on(proc))
                           for proc in trace.processors()}


class TestRealPrefillDags:
    @pytest.mark.parametrize("shadow", [True, False],
                             ids=["shadow", "no-shadow"])
    @pytest.mark.parametrize("backend", ["cpu", "gpu"])
    @pytest.mark.parametrize("n_chunks", [1, 8])
    def test_prefill_dag_matches_reference(self, qwen_engine, n_chunks,
                                           backend, shadow):
        # The engine's path (dependents from the graph's cached blocks)
        # and a plain-list copy of the same DAG (ids resolved per run)
        # must both schedule exactly as the reference does.
        plans = qwen_engine.graph.plans_for_prompt(
            n_chunks * qwen_engine.config.chunk_len, 0)
        assert len(plans) == n_chunks
        procs, tasks = lower_prefill(plans, backend, shadow, None,
                                     qwen_engine._prepared.task_blocks())
        assert tasks.dependents is not None
        plain = list(tasks)
        for name in sorted(POLICIES):
            ref = ReferenceSimulator(procs).run(plain, get_policy(name))
            linked = Simulator(procs).run(tasks, get_policy(name),
                                          tasks.dependents)
            fast = Simulator(procs).run(plain, get_policy(name))
            assert linked.events == ref.events, name
            assert fast.events == ref.events, name
            assert_lanes_regroup_events(linked)
            assert linked.lanes == fast.lanes

    def test_captured_run_with_a_decode_tail(self, qwen_engine):
        # capture_engine_run appends decode tasks to the lowered list,
        # whose dependents then no longer describe it; the capture holds
        # a plain tuple, and the simulator refuses outdated dependents.
        n_tokens = 3 * qwen_engine.config.chunk_len
        run = capture_engine_run(qwen_engine, n_tokens, output_tokens=4)
        assert run.tasks[-1].task_id == "decode.t3"
        procs = list(run.processors)
        for name in sorted(POLICIES):
            ref = ReferenceSimulator(procs).run(list(run.tasks),
                                                get_policy(name))
            fast = Simulator(procs).run(list(run.tasks), get_policy(name))
            assert fast.events == ref.events, name
        plans = qwen_engine.graph.plans_for_prompt(n_tokens, 0)
        _, tasks = lower_prefill(plans, "cpu", True, None,
                                 qwen_engine._prepared.task_blocks())
        with pytest.raises(SchedulingError, match="dependents cover"):
            Simulator(procs).run(list(run.tasks), FifoPolicy(),
                                 tasks.dependents)

    def test_reversed_plans_take_the_id_path(self, qwen_engine):
        # Out of chunk order a block no longer sits right after its
        # earlier chunks, so lowering hands over no dependents and leaves
        # the block cache alone.
        plans = qwen_engine.graph.plans_for_prompt(
            4 * qwen_engine.config.chunk_len, 0)
        blocks = qwen_engine._prepared.task_blocks()
        cached = dict(blocks)
        procs, tasks = lower_prefill(plans[::-1], "cpu", True, None, blocks)
        assert tasks.dependents is None
        assert blocks == cached
        assert tasks[0].task_id.startswith("c3.")
        for name in sorted(POLICIES):
            outcomes = []
            for sim_cls in (ReferenceSimulator, Simulator):
                # in-order queues chunk 3 first, whose attention waits
                # for chunks queued after it: both simulators deadlock.
                try:
                    outcomes.append(sim_cls(procs).run(
                        tasks, get_policy(name)).events)
                except DependencyError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], name
        report = run_prefill(plans[::-1], qwen_engine.device, 100,
                             blocks=blocks)
        assert report.trace.events == ReferenceSimulator(procs).run(
            tasks, get_policy("ooo")).events


class TestFastPathGate:
    @pytest.mark.parametrize(
        "policy_cls",
        [FifoPolicy, ChunkOrderPolicy, LatencyGreedyPolicy, HeadOfLinePolicy],
        ids=lambda p: p.__name__)
    def test_select_override_is_honored(self, policy_cls):
        # A subclass of a static-key policy may override select; the
        # simulator must then call it instead of running the key heap.
        class LifoPolicy(policy_cls):
            def select(self, proc, ready, context):
                return max(ready,
                           key=lambda t: context.submit_index[t.task_id])

        tasks = [Task(f"t{i}", "cpu", 1e-4) for i in range(6)]
        lifo = Simulator(["cpu"]).run(tasks, LifoPolicy())
        base = Simulator(["cpu"]).run(tasks, policy_cls())
        assert [e.task_id for e in lifo.events] == [
            f"t{i}" for i in reversed(range(6))
        ]
        assert [e.task_id for e in base.events] == [
            f"t{i}" for i in range(6)
        ]
        # and the subclass still matches the reference simulator
        ref = ReferenceSimulator(["cpu"]).run(tasks, LifoPolicy())
        assert lifo.events == ref.events


    @pytest.mark.parametrize("policy_cls",
                             [OutOfOrderPolicy, NormalizedOooPolicy],
                             ids=lambda p: p.__name__)
    def test_eq5_select_override_is_called(self, policy_cls):
        # A subclass of an Eq. 5 policy that overrides select must be
        # called, not replaced by the rule its parent declares.
        calls = []

        class Lifo(policy_cls):
            def select(self, proc, ready, context):
                calls.append(proc)
                return max(ready,
                           key=lambda t: context.submit_index[t.task_id])

        tasks = [Task(f"t{i}", "cpu", 1e-4 * (i + 1)) for i in range(6)]
        lifo = Simulator(["cpu"]).run(tasks, Lifo())
        assert len(calls) == 6
        assert [e.task_id for e in lifo.events] == [
            f"t{i}" for i in reversed(range(6))
        ]
        base = Simulator(["cpu"]).run(tasks, policy_cls())
        assert [e.task_id for e in base.events] == [
            f"t{i}" for i in range(6)
        ]
        ref = ReferenceSimulator(["cpu"]).run(tasks, Lifo())
        assert lifo.events == ref.events

    def test_unknown_eq5_rule_is_rejected(self):
        class Bogus(OutOfOrderPolicy):
            eq5 = "per-watt"

            def select(self, proc, ready, context):
                return ready[0]

        with pytest.raises(SchedulingError, match="unknown eq5 rule"):
            Simulator(["cpu"]).run([Task("a", "cpu", 1.0)], Bogus())


class TestKeyColumn:
    """Static-key policies hand the simulator their keys as one column
    (``SchedulingPolicy.key_column``); the built-ins build it from the
    task fields' columns instead of calling ``key`` per task."""

    STATIC = [FifoPolicy, ChunkOrderPolicy, LatencyGreedyPolicy,
              HeadOfLinePolicy]

    @pytest.mark.parametrize("policy_cls", STATIC,
                             ids=lambda p: p.__name__)
    def test_column_equals_the_per_task_keys(self, qwen_engine, policy_cls):
        plans = qwen_engine.graph.plans_for_prompt(
            3 * qwen_engine.config.chunk_len, 0)
        _, tasks = lower_prefill(plans, "cpu", True, None,
                                 qwen_engine._prepared.task_blocks())
        policy = policy_cls()
        columns = TaskColumns._make(zip(*tasks))
        assert list(policy.key_column(tasks, columns)) == [
            policy.key(t, i) for i, t in enumerate(tasks)]
        assert list(policy.key_column([], TaskColumns(*((),) * 8))) == []

    @pytest.mark.parametrize("policy_cls", STATIC,
                             ids=lambda p: p.__name__)
    def test_subclass_overriding_only_key_keeps_its_keys(self, policy_cls):
        # The parent's column is its own keys; a subclass that changes
        # only key must get the order its key gives.
        class NewestFirst(policy_cls):
            def key(self, task, index):
                return -index

        tasks = [Task(f"t{i}", "cpu", 1e-4) for i in range(6)]
        newest = Simulator(["cpu"]).run(tasks, NewestFirst())
        assert [e.task_id for e in newest.events] == [
            f"t{i}" for i in reversed(range(6))]
        assert newest.events == ReferenceSimulator(["cpu"]).run(
            tasks, NewestFirst()).events
        for seed in range(3):
            graph = random_graph(seed)
            outcomes = []
            for sim_cls in (ReferenceSimulator, Simulator):
                # a reversed in-order queue may deadlock: both must
                try:
                    outcomes.append(sim_cls(PROCS).run(
                        graph, NewestFirst()).events)
                except DependencyError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], f"graph seed {seed}"

    def test_column_override_below_key_is_used(self):
        calls = []

        class Columned(SchedulingPolicy):
            def key(self, task, index):
                return (task.tag, index)

        class Counted(Columned):
            def key_column(self, tasks, columns):
                calls.append(len(tasks))
                return list(zip(columns.tag, range(len(tasks))))

        for seed in range(3):
            tasks = random_graph(seed)
            fast = Simulator(PROCS).run(tasks, Counted())
            assert fast.events == ReferenceSimulator(PROCS).run(
                tasks, Columned()).events
        assert calls == [60, 60, 60]

    @pytest.mark.parametrize("model_name,rate,backend,cached", [
        ("Gemma-2B", 0.975, "gpu", 0),
        ("Phi-2-2.7B", 0.1, "cpu", 256),
        ("Qwen2-1.5B", 0.475, "npu", 300),
    ])
    def test_block_cached_sweep_dags_match_reference(
            self, model_name, rate, backend, cached):
        # DAGs lowered from the graph's cached blocks, as the engine
        # lowers them, schedule as the reference does under every policy.
        engine = LlmNpuEngine.build(model_name, "Redmi K60 Pro",
                                    float_backend=backend,
                                    pruning_rate=rate, max_chunks=4)
        blocks = engine._prepared.task_blocks()
        plans = engine.graph.plans_for_prompt(500, cached)
        lower_prefill(plans, backend, True, None, blocks)
        procs, tasks = lower_prefill(plans, backend, True, None, blocks)
        assert tasks.dependents is not None
        for name in sorted(POLICIES):
            ref = ReferenceSimulator(procs).run(list(tasks), get_policy(name))
            fast = Simulator(procs).run(tasks, get_policy(name),
                                        tasks.dependents)
            assert fast.events == ref.events, name


class TestErrorParity:
    @pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator],
                             ids=["fast", "reference"])
    def test_unknown_processor(self, sim_cls):
        with pytest.raises(DependencyError, match="unknown processor"):
            sim_cls(["cpu"]).run([Task("a", "gpu", 1.0)], FifoPolicy())

    @pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator],
                             ids=["fast", "reference"])
    def test_unknown_dependency(self, sim_cls):
        with pytest.raises(DependencyError, match="unknown dependency"):
            sim_cls(["cpu"]).run(
                [Task("a", "cpu", 1.0, deps=("ghost",))], FifoPolicy()
            )

    @pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator],
                             ids=["fast", "reference"])
    def test_cyclic_deadlock(self, sim_cls):
        tasks = [
            Task("a", "cpu", 1.0, deps=("b",)),
            Task("b", "cpu", 1.0, deps=("a",)),
        ]
        with pytest.raises(DependencyError, match="deadlock"):
            sim_cls(["cpu"]).run(tasks, FifoPolicy())
