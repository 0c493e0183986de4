"""Topology layer: structural helpers, schedule lowering, crossbar pins."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.machine import CostModel, SPMDRuntime, run_spmd
from repro.machine.cost_model import ComputeCosts, cm5, cm5_two_level
from repro.machine.topology import (
    TOPOLOGIES,
    BinomialTreeTopology,
    CrossbarTopology,
    HypercubeTopology,
    TwoLevelTopology,
    available_topologies,
    default_topology_spec,
    hypercube_partner,
    hypercube_rounds,
    is_power_of_two,
    log2_ceil,
    next_power_of_two,
    resolve_topology,
    tree_children,
    validate_topology_spec,
)

#: Zeroed compute, awkward link constants: schedule-pricing tests read
#: communication time only, and any float drift shows in the low bits.
LINKS = CostModel(
    tau=0.1, mu=0.007,
    compute=ComputeCosts(0, 0, 0, 0, 0, 0, 0, 0),
    name="links",
)


class TestPowers:
    @pytest.mark.parametrize("p,expect", [(1, True), (2, True), (3, False),
                                          (4, True), (6, False), (128, True)])
    def test_is_power_of_two(self, p, expect):
        assert is_power_of_two(p) is expect

    @pytest.mark.parametrize("p,expect", [(1, 1), (2, 2), (3, 4), (5, 8),
                                          (8, 8), (9, 16), (100, 128)])
    def test_next_power_of_two(self, p, expect):
        assert next_power_of_two(p) == expect

    @pytest.mark.parametrize("p,expect", [(1, 0), (2, 1), (3, 2), (4, 2),
                                          (7, 3), (8, 3), (128, 7)])
    def test_log2_ceil(self, p, expect):
        assert log2_ceil(p) == expect

    def test_rejects_nonpositive(self):
        for fn in (next_power_of_two, log2_ceil):
            with pytest.raises(ConfigurationError):
                fn(0)


class TestPartners:
    def test_partner_is_involution(self):
        p = 16
        for dim in range(4):
            for r in range(p):
                q = hypercube_partner(r, dim, p)
                assert q is not None
                assert hypercube_partner(q, dim, p) == r

    def test_partner_missing_on_non_pow2(self):
        # p=6: rank 2 ^ 4 = 6 which does not exist.
        assert hypercube_partner(2, 2, 6) is None
        assert hypercube_partner(1, 0, 6) == 0

    def test_rank_out_of_range(self):
        with pytest.raises(ConfigurationError):
            hypercube_partner(9, 0, 4)


class TestRounds:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_pow2_rounds_cover_all_ranks(self, p):
        rounds = list(hypercube_rounds(p))
        assert len(rounds) == log2_ceil(p)
        for pairs in rounds:
            seen = [r for pair in pairs for r in pair]
            assert sorted(seen) == list(range(p))  # perfect matching

    def test_non_pow2_rounds_are_disjoint(self):
        for pairs in hypercube_rounds(6):
            seen = [r for pair in pairs for r in pair]
            assert len(seen) == len(set(seen))
            assert all(0 <= r < 6 for r in seen)


class TestTreeChildren:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 13, 16, 128])
    def test_binomial_tree_spans_all_ranks(self, p):
        # Union of parent->child edges reaches every rank exactly once.
        reached = {0}
        frontier = [0]
        depth = 0
        while frontier:
            nxt = []
            for r in frontier:
                for c in tree_children(r, p):
                    assert c not in reached
                    reached.add(c)
                    nxt.append(c)
            frontier = nxt
            depth += 1
            assert depth <= log2_ceil(p) + 1
        assert reached == set(range(p))

    @given(st.integers(min_value=1, max_value=200))
    def test_property_children_in_range(self, p):
        for r in range(p):
            for c in tree_children(r, p):
                assert r < c < p


# ---------------------------------------------------------------------------
# Registry and spec resolution
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_available_topologies(self):
        assert available_topologies() == (
            "binomial-tree", "crossbar", "hypercube", "two-level"
        )

    def test_validate_spec_canonicalises(self):
        assert validate_topology_spec("crossbar") == "crossbar"
        assert validate_topology_spec("tree") == "binomial-tree"
        assert validate_topology_spec("two-level:8") == "two-level:8"

    def test_validate_spec_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown topology") as ei:
            validate_topology_spec("torus")
        for name in available_topologies():
            assert name in str(ei.value)

    def test_validate_spec_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            validate_topology_spec("hypercube:2")
        with pytest.raises(ConfigurationError, match="cluster size"):
            validate_topology_spec("two-level:zero")
        with pytest.raises(ConfigurationError, match="cluster size"):
            validate_topology_spec("two-level:-1")
        with pytest.raises(ConfigurationError, match="string"):
            validate_topology_spec(4)

    def test_resolve_by_name_and_instance(self):
        topo = resolve_topology("hypercube", 8)
        assert isinstance(topo, HypercubeTopology) and topo.p == 8
        assert resolve_topology(topo, 8) is topo
        assert resolve_topology(None, 4).name == "crossbar"
        assert resolve_topology("two-level:2", 8).cluster_size == 2

    def test_resolve_rejects_wrong_p_instance(self):
        topo = CrossbarTopology(4)
        with pytest.raises(ConfigurationError, match="wired for p=4"):
            resolve_topology(topo, 8)

    def test_resolve_rejects_bad_type(self):
        with pytest.raises(ConfigurationError, match="topology must be"):
            resolve_topology(3.14, 4)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
        assert default_topology_spec() == "crossbar"
        monkeypatch.setenv("REPRO_TOPOLOGY", "hypercube")
        assert default_topology_spec() == "hypercube"
        assert run_spmd(lambda ctx: None, 2).topology == "hypercube"
        monkeypatch.setenv("REPRO_TOPOLOGY", "donut")
        with pytest.raises(ConfigurationError, match="unknown topology"):
            default_topology_spec()

    def test_every_registered_topology_constructs(self):
        for name, cls in TOPOLOGIES.items():
            topo = cls(6)
            assert topo.name == name
            assert name in topo.describe()

    def test_topology_rejects_bad_p(self):
        for cls in TOPOLOGIES.values():
            with pytest.raises(ConfigurationError):
                cls(0)

    def test_runtime_carries_topology(self):
        rt = SPMDRuntime(4, topology="binomial-tree")
        assert rt.topology.name == "binomial-tree"
        res = rt.run(lambda ctx: ctx.rank)
        assert res.topology == "binomial-tree"
        # Per-launch override leaves the runtime default untouched.
        res = rt.run(lambda ctx: ctx.rank, topology="crossbar")
        assert res.topology == "crossbar"
        assert rt.topology.name == "binomial-tree"


# ---------------------------------------------------------------------------
# Schedule structure
# ---------------------------------------------------------------------------


def _assert_transfers_valid(sched, p):
    for rnd in sched.rounds:
        for t in rnd:
            assert 0 <= t.src < p and 0 <= t.dst < p and t.src != t.dst
            assert t.words >= 0


class TestSchedules:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 8, 16])
    def test_broadcast_reaches_every_rank(self, name, p):
        topo = TOPOLOGIES[name](p)
        for root in {0, p - 1, p // 2}:
            sched = topo.broadcast_schedule(cm5(), root, 10.0)
            _assert_transfers_valid(sched, p)
            informed = {root}
            for rnd in sched.rounds:
                for t in rnd:
                    assert t.src in informed, (
                        f"{name}: rank {t.src} forwards before it is informed"
                    )
                    informed.add(t.dst)
            assert informed == set(range(p))

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
    def test_gather_collects_every_contribution(self, name, p):
        topo = TOPOLOGIES[name](p)
        for root in {0, p - 1}:
            sched = topo.gather_schedule(cm5(), root, 1.0)
            _assert_transfers_valid(sched, p)
            # Every non-root rank's contribution must leave it at least once.
            senders = {t.src for rnd in sched.rounds for t in rnd}
            assert set(range(p)) - {root} <= senders

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_rounds_are_send_matchings_for_tree_and_cube(self, name):
        # Tree and hypercube collectives never ask one rank to send two
        # messages in the same round (store-and-forward discipline).
        if name == "two-level":
            return
        topo = TOPOLOGIES[name](8)
        for sched in (
            topo.broadcast_schedule(cm5(), 0, 4.0),
            topo.combine_schedule(cm5(), 4.0),
            topo.gather_schedule(cm5(), 0, 4.0),
            topo.allgather_schedule(cm5(), 4.0),
        ):
            assert sched.congestion <= 1

    def test_congestion_surfaces_tree_root_bottleneck(self):
        # Bandwidth-bound all-to-all over a tree funnels through the root
        # link. (Start-up-bound traffic can be *cheaper* on the tree: hop
        # batching amortises tau — so the test uses fat messages.)
        p = 8
        words = [
            [1e6 if s != d else None for d in range(p)] for s in range(p)
        ]
        tree = BinomialTreeTopology(p).alltoallv_schedule(cm5(), words)
        crossbar = CrossbarTopology(p).alltoallv_schedule(cm5(), words)
        assert tree.congestion >= 1
        assert crossbar.congestion == p - 1  # dense direct exchange
        assert tree.cost > crossbar.cost  # the bottleneck costs real time

    def test_schedule_cost_is_sum_of_round_costs_off_crossbar(self):
        topo = HypercubeTopology(8)
        sched = topo.combine_schedule(LINKS, 5.0)
        assert sched.cost == sum(sched.round_costs)
        assert len(sched.round_costs) == sched.n_rounds == 3

    def test_empty_schedules_on_single_rank(self):
        for cls in TOPOLOGIES.values():
            topo = cls(1)
            assert topo.broadcast_schedule(cm5(), 0, 9.0).cost == 0.0
            assert topo.combine_schedule(cm5(), 9.0).n_rounds == 0
            assert topo.barrier_schedule(cm5()).cost == 0.0


class TestRouting:
    def test_crossbar_routes_direct(self):
        topo = CrossbarTopology(8)
        assert topo.route(3, 3) == []
        assert topo.route(2, 7) == [(2, 7, False)]

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_tree_route_follows_parent_child_edges(self, p):
        topo = BinomialTreeTopology(p)
        for a in range(p):
            for b in range(p):
                hops = topo.route(a, b)
                if a == b:
                    assert hops == []
                    continue
                assert hops[0][0] == a and hops[-1][1] == b
                for u, v, _ in hops:
                    assert u & (u - 1) == v or v & (v - 1) == u, (
                        f"({u},{v}) is not a tree edge"
                    )

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_hypercube_route_is_ecube(self, p):
        topo = HypercubeTopology(p)
        for a in range(p):
            for b in range(p):
                hops = topo.route(a, b)
                if a == b:
                    assert hops == []
                    continue
                assert hops[0][0] == a and hops[-1][1] == b
                for u, v, _ in hops:
                    assert is_power_of_two(u ^ v)  # one address bit per hop
                assert len(hops) == bin(a ^ b).count("1")

    def test_hypercube_route_folds_missing_corners(self):
        # p=6: the e-cube path 5 -> 4 -> 6 -> 2 passes corner 6, which
        # does not exist; the fold skips it.
        topo = HypercubeTopology(6)
        hops = topo.route(5, 2)
        nodes = [hops[0][0]] + [v for _, v, _ in hops]
        assert all(n < 6 for n in nodes)
        assert nodes[0] == 5 and nodes[-1] == 2

    def test_two_level_route_flags_cluster_crossings(self):
        topo = TwoLevelTopology(8, cluster_size=4)
        assert topo.route(0, 3) == [(0, 3, False)]
        assert topo.route(1, 6) == [(1, 6, True)]


class TestTwoLevelStructure:
    def test_membership(self):
        topo = TwoLevelTopology(10, cluster_size=4)
        assert topo.n_clusters == 3
        assert [topo.cluster(r) for r in range(10)] == \
            [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        assert list(topo.members(2)) == [8, 9]
        assert topo.leader(1) == 4

    def test_default_cluster_size_is_square_ish(self):
        assert TwoLevelTopology(16).cluster_size == 4
        assert TwoLevelTopology(64).cluster_size == 8
        assert TwoLevelTopology(2).cluster_size <= 2

    def test_describe_names_the_split(self):
        assert TwoLevelTopology(16, cluster_size=4).describe() == \
            "two-level(p=16, clusters=4x4)"

    def test_rejects_bad_cluster_size(self):
        with pytest.raises(ConfigurationError, match="cluster_size"):
            TwoLevelTopology(8, cluster_size=0)


# ---------------------------------------------------------------------------
# Crossbar: bit-identical to the paper's closed forms (the refactor pin)
# ---------------------------------------------------------------------------


def _mixed_program(ctx):
    ctx.comm.broadcast(np.zeros(17) if ctx.rank == 0 else None, root=0)
    ctx.comm.combine(float(ctx.rank))
    ctx.comm.prefix_sum(ctx.rank + 1)
    ctx.comm.gather(np.zeros(9), root=min(2, ctx.size - 1))
    ctx.comm.global_concat(np.zeros(3))
    sends = [
        np.zeros(ctx.rank + d + 1) if d != ctx.rank else None
        for d in range(ctx.size)
    ]
    ctx.comm.alltoallv(sends)
    partner = ctx.rank ^ 1
    partner = partner if partner < ctx.size else None
    ctx.comm.pairwise_exchange(
        partner, np.zeros(31) if partner is not None else None
    )
    ctx.comm.barrier()
    return ctx.clock.now


def _legacy_formulas(p, tau, mu):
    """The pre-schedule engine's monolithic price of ``_mixed_program``."""
    L = max(0, int(math.ceil(math.log2(p)))) if p > 1 else 0
    t = 0.0
    t += (tau + mu * 17.0) * L
    t += (tau + mu * 1.0) * L
    t += (tau + mu * 1.0) * L
    t += tau * L + mu * 9.0 * (p - 1)
    t += tau * L + mu * 3.0 * (p - 1)
    out = [sum(i + d + 1 for d in range(p) if d != i) for i in range(p)]
    inc = [sum(s + d + 1 for s in range(p) if s != d) for d in range(p)]
    traffic = max(max(o, i_) for o, i_ in zip(out, inc)) if p > 1 else 0.0
    t += tau * (p - 1 if p > 1 else 0) + 2.0 * mu * float(traffic)
    if p > 1:
        t += tau + mu * 31.0
    t += (tau + mu) * L
    return t


class TestCrossbarBitIdentity:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 16])
    def test_simulated_time_bit_identical_to_closed_forms(self, p):
        res = run_spmd(_mixed_program, p, cost_model=LINKS,
                       topology="crossbar")
        expected = _legacy_formulas(p, LINKS.tau, LINKS.mu)
        assert res.simulated_time == expected  # ==, not approx: the pin
        assert all(c == expected for c in res.clocks)

    def test_default_topology_is_crossbar(self):
        res = run_spmd(_mixed_program, 4, cost_model=LINKS)
        explicit = run_spmd(_mixed_program, 4, cost_model=LINKS,
                            topology="crossbar")
        assert res.topology == "crossbar"
        assert res.simulated_time == explicit.simulated_time

    def test_hierarchy_fields_do_not_change_flat_topologies(self):
        # tau_inter/mu_inter are only consulted by the two-level shape.
        hier = cm5_two_level()
        for topo in ("crossbar", "binomial-tree", "hypercube"):
            a = run_spmd(_mixed_program, 5, cost_model=cm5(), topology=topo)
            b = run_spmd(_mixed_program, 5, cost_model=hier, topology=topo)
            assert a.simulated_time == b.simulated_time, topo

    def test_two_level_feels_the_hierarchy(self):
        flat = run_spmd(_mixed_program, 8, cost_model=cm5(),
                        topology="two-level")
        hier = run_spmd(_mixed_program, 8, cost_model=cm5_two_level(),
                        topology="two-level")
        assert hier.simulated_time > flat.simulated_time


class TestPriceAccessors:
    """The price-only accessors a cost predictor reads equal the lowered
    schedule's cost bit for bit, on every shape, machine size and model."""

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("model", [cm5(), cm5_two_level()],
                             ids=["cm5", "cm5_two_level"])
    def test_prices_equal_schedule_costs(self, name, model):
        for p in range(1, 17):
            topo = resolve_topology(name, p)
            for m in (1.0, 2, p, 0.375, 200.0):
                assert topo.combine_cost(model, m) == (
                    topo.combine_schedule(model, m).cost
                )
                assert topo.allgather_cost(model, m) == (
                    topo.allgather_schedule(model, m).cost
                )
                for root in sorted({0, p // 2, p - 1}):
                    assert topo.gather_cost(model, root, m) == (
                        topo.gather_schedule(model, root, m).cost
                    )


# ---------------------------------------------------------------------------
# Round counts: schedules match the analytic depths
# ---------------------------------------------------------------------------


class TestRoundCounts:
    def _rounds(self, p, topology, program):
        res = run_spmd(program, p, topology=topology, trace=True)
        return res.collective_rounds()

    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8, 16])
    @pytest.mark.parametrize("topology", ["crossbar", "hypercube"])
    def test_log_depth_collectives(self, p, topology):
        def prog(ctx):
            ctx.comm.broadcast(1.0 if ctx.rank == 0 else None, root=0)
            ctx.comm.combine(1.0)
            ctx.comm.prefix_sum(1)
            ctx.comm.gather(1.0, root=0)
            ctx.comm.global_concat(1.0)

        rounds = self._rounds(p, topology, prog)
        L = log2_ceil(p)
        for op in ("broadcast", "combine", "prefix", "gather", "allgather"):
            assert rounds[op]["rounds"] == L, (topology, op)

    @pytest.mark.parametrize("p", [2, 4, 8, 13])
    def test_tree_up_down_depth(self, p):
        def prog(ctx):
            ctx.comm.broadcast(1.0 if ctx.rank == 0 else None, root=0)
            ctx.comm.combine(1.0)

        rounds = self._rounds(p, "binomial-tree", prog)
        L = log2_ceil(p)
        assert rounds["broadcast"]["rounds"] == L  # root 0: pure fan-out
        assert rounds["combine"]["rounds"] == 2 * L  # fold up + fan down

    def test_two_level_stage_depths(self):
        def prog(ctx):
            ctx.comm.broadcast(1.0 if ctx.rank == 0 else None, root=0)
            ctx.comm.combine(1.0)

        # p=8 with the default square-ish split: 2 clusters of 4.
        rounds = self._rounds(8, "two-level", prog)
        ls, lc = log2_ceil(4), log2_ceil(2)
        assert rounds["broadcast"]["rounds"] == lc + ls
        assert rounds["combine"]["rounds"] == 2 * ls + lc

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_pairwise_exchange_is_one_round_for_adjacent_pairs(self, topology):
        def prog(ctx):
            ctx.comm.pairwise_exchange(ctx.rank ^ 1, ctx.rank)

        rounds = self._rounds(4, topology, prog)
        # rank^1 pairs are hypercube dim-0 neighbours and tree
        # parent-child edges: single-hop everywhere.
        assert rounds["pairwise_exchange"]["rounds"] == 1

    @pytest.mark.parametrize("p", [4, 8])
    def test_hypercube_dimension_rounds_match_helper(self, p):
        def prog(ctx):
            ctx.comm.combine(1.0)

        rounds = self._rounds(p, "hypercube", prog)
        assert rounds["combine"]["rounds"] == len(list(hypercube_rounds(p)))


# ---------------------------------------------------------------------------
# Hierarchical cost model
# ---------------------------------------------------------------------------


class TestHierarchicalCostModel:
    def test_link_defaults_to_flat(self):
        m = cm5()
        assert m.link(False) == (m.tau, m.mu)
        assert m.link(True) == (m.tau, m.mu)

    def test_link_inter_overrides(self):
        m = cm5().replace(tau_inter=1.0, mu_inter=2.0)
        assert m.link(False) == (m.tau, m.mu)
        assert m.link(True) == (1.0, 2.0)

    def test_cm5_two_level_preset(self):
        m = cm5_two_level()
        assert m.tau_inter == m.tau * 4.0
        assert m.mu_inter == m.mu * 8.0
        assert m.name == "CM5-2level"

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), "x"])
    def test_validation_rejects_bad_inter_links(self, bad):
        with pytest.raises(ConfigurationError):
            CostModel(tau_inter=bad)
        with pytest.raises(ConfigurationError):
            CostModel(mu_inter=bad)


class TestTraceSummaryAggregates:
    """Regression: machine-wide aggregate records (``TraceEvent.rank is
    None``) used to fall through ``from_tracer``'s integer-rank filter
    silently — a per-rank summary quietly under-counted whatever a
    producer logged machine-wide. The handling is explicit now."""

    @staticmethod
    def _tracer():
        from repro.machine.trace import TraceEvent, Tracer

        tracer = Tracer()
        tracer.record(TraceEvent(0, "broadcast", 4.0, 0.0, 1.0))
        tracer.record(TraceEvent(1, "broadcast", 4.0, 0.0, 1.0))
        tracer.record(TraceEvent(None, "balance", 16.0, 1.0, 3.0))
        return tracer

    def test_rank_filter_includes_aggregates_by_default(self):
        from repro.machine.trace import TraceSummary

        s = TraceSummary.from_tracer(self._tracer(), rank=0)
        assert s.counts == {"broadcast": 1, "balance": 1}
        assert s.time["balance"] == pytest.approx(2.0)

    def test_exclude_restores_historical_filter(self):
        from repro.machine.trace import TraceSummary

        s = TraceSummary.from_tracer(
            self._tracer(), rank=0, aggregates="exclude"
        )
        assert s.counts == {"broadcast": 1}
        assert "balance" not in s.counts

    def test_only_selects_aggregate_records(self):
        from repro.machine.trace import TraceSummary

        s = TraceSummary.from_tracer(self._tracer(), aggregates="only")
        assert s.counts == {"balance": 1}

    def test_no_filter_sums_everything(self):
        from repro.machine.trace import TraceSummary

        s = TraceSummary.from_tracer(self._tracer())
        assert s.counts == {"broadcast": 2, "balance": 1}

    def test_bad_mode_raises(self):
        from repro.machine.trace import TraceSummary

        with pytest.raises(ValueError, match="aggregates"):
            TraceSummary.from_tracer(self._tracer(), aggregates="sometimes")
