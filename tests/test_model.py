import re

import numpy as np
import pytest

from trafficmaps.model import (
    DegenerateTruthError,
    Observations,
    RoutingMatrix,
    SamplingMask,
    SubspaceBundle,
    Topology,
    TrafficMatrices,
    apply_routing,
    project_phi,
    project_sampling,
    relative_errors,
    subspace_bundle,
)
from trafficmaps.pipelines import ExperimentConfig, build_network


def random_bundle(F, T, r, seed=0):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((F, r)))
    V, _ = np.linalg.qr(rng.standard_normal((T, r)))
    return SubspaceBundle(U, V, np.zeros((F, T), dtype=bool))


class TestApplyRouting:
    def test_selector_row(self):
        R = np.array([[1.0, 0.0]])
        M = np.array([[3.0], [5.0]])
        assert np.array_equal(apply_routing(R, M), [[3.0]])

    def test_all_zero_routing(self):
        R = np.zeros((3, 4))
        M = np.ones((4, 5))
        assert np.array_equal(apply_routing(R, M), np.zeros((3, 5)))

    def test_line_graph_single_path(self):
        # A -> B -> C carries the full flow on both links.
        R = np.array([[1.0], [1.0]])
        y = apply_routing(R, np.array([[2.0]]))
        assert np.array_equal(y, [[2.0], [2.0]])

    def test_linearity(self):
        rng = np.random.default_rng(1)
        R = rng.random((4, 6))
        M = rng.standard_normal((6, 5))
        N = rng.standard_normal((6, 5))
        lhs = apply_routing(R, 2.5 * M - 1.25 * N)
        rhs = 2.5 * apply_routing(R, M) - 1.25 * apply_routing(R, N)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_routing(np.ones((2, 3)), np.ones((4, 5)))


class TestProjectSampling:
    def test_full_mask_identity(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 4))
        mask = SamplingMask(np.ones((5, 4), dtype=bool))
        assert np.array_equal(project_sampling(mask, M), M)

    def test_empty_mask_zero(self):
        M = np.ones((3, 3))
        mask = SamplingMask(np.zeros((3, 3), dtype=bool))
        assert np.array_equal(project_sampling(mask, M), np.zeros((3, 3)))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 7))
        mask = SamplingMask(rng.random((6, 7)) < 0.4)
        once = project_sampling(mask, M)
        assert np.array_equal(project_sampling(mask, once), once)

    def test_self_adjoint(self):
        rng = np.random.default_rng(4)
        mask = SamplingMask(rng.random((5, 6)) < 0.5)
        M = rng.standard_normal((5, 6))
        N = rng.standard_normal((5, 6))
        lhs = np.sum(project_sampling(mask, M) * N)
        rhs = np.sum(M * project_sampling(mask, N))
        assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        mask = SamplingMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            project_sampling(mask, np.ones((3, 3)))


class TestProjectPhi:
    def test_column_space_fixed_point(self):
        rng = np.random.default_rng(5)
        b = random_bundle(7, 6, 2, seed=5)
        Z = b.U0 @ rng.standard_normal((2, 6))
        assert np.allclose(project_phi(b, Z), Z, atol=1e-12)

    def test_orthogonal_element_maps_to_zero(self):
        rng = np.random.default_rng(6)
        b = random_bundle(7, 6, 2, seed=6)
        G = rng.standard_normal((7, 6))
        Pu = b.U0 @ b.U0.T
        Pv = b.V0 @ b.V0.T
        Z = (np.eye(7) - Pu) @ G @ (np.eye(6) - Pv)
        assert np.abs(project_phi(b, Z)).max() < 1e-12

    def test_idempotent_self_adjoint_linear(self):
        rng = np.random.default_rng(7)
        b = random_bundle(8, 9, 3, seed=7)
        Z = rng.standard_normal((8, 9))
        W = rng.standard_normal((8, 9))
        P = lambda M: project_phi(b, M)
        assert np.abs(P(P(Z)) - P(Z)).max() < 1e-10
        assert abs(np.sum(P(Z) * W) - np.sum(Z * P(W))) < 1e-10
        assert np.abs(P(1.5 * Z - 2.0 * W) - (1.5 * P(Z) - 2.0 * P(W))).max() < 1e-10


class TestRelativeErrors:
    def test_exact_estimate(self):
        t = TrafficMatrices(np.ones((3, 3)), np.eye(3))
        assert relative_errors(t, t) == (0.0, 0.0, 0.0)

    def test_scaled_nominal(self):
        X = np.ones((2, 2))
        A = np.eye(2)
        est = TrafficMatrices(2 * X, A)
        truth = TrafficMatrices(X, A)
        e_x, e_a, e_sum = relative_errors(est, truth)
        assert e_x == pytest.approx(1.0)
        assert e_a == 0.0
        assert e_sum == pytest.approx(1.0)

    def test_zero_estimate(self):
        truth = TrafficMatrices(np.ones((2, 2)), np.eye(2))
        est = TrafficMatrices(np.zeros((2, 2)), np.zeros((2, 2)))
        e_x, e_a, e_sum = relative_errors(est, truth)
        assert (e_x, e_a, e_sum) == (1.0, 1.0, 2.0)

    def test_degenerate_truth(self):
        truth = TrafficMatrices(np.zeros((2, 2)), np.eye(2))
        est = TrafficMatrices(np.ones((2, 2)), np.eye(2))
        with pytest.raises(DegenerateTruthError):
            relative_errors(est, truth)


class TestTypes:
    def test_topology_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(node_count=3, links=((0, 0),))

    def test_topology_rejects_bad_endpoint(self):
        with pytest.raises(ValueError):
            Topology(node_count=2, links=((0, 5),))

    def test_routing_conservation_violation(self):
        # Flow 0->2 on the line 0-1-2 entering node 1 but never leaving it.
        with pytest.raises(ValueError, match="conservation"):
            RoutingMatrix(
                entries=np.array([[1.0], [0.0]]),
                od_pairs=((0, 2),),
                links=((0, 1), (1, 2)),
                node_count=3,
            )

    def test_routing_conservation_names_first_violation(self):
        # On the line 0-1-2-3, flow 0 loses half at node 2 and flow 1 half at
        # node 1: the message names flow 0 first, not node 1 first.
        with pytest.raises(ValueError) as err:
            RoutingMatrix(
                entries=np.array([[1.0, 1.0], [1.0, 0.5], [0.5, 0.5]]),
                od_pairs=((0, 3), (0, 3)),
                links=((0, 1), (1, 2), (2, 3)),
                node_count=4,
            )
        assert str(err.value) == ("flow conservation violated for flow 0 at node 2: "
                                  "in=1.000e+00 out=5.000e-01")

    @pytest.mark.parametrize("seed", range(4))
    def test_routing_conservation_matches_loop_reference(self, seed):
        # Multipath routings with a few entries moved: the check names the
        # violation that a loop over flows, then nodes, finds first.
        cfg = ExperimentConfig({"synth.nodes": 10, "synth.radius": 0.6,
                                "synth.flows": 12, "synth.paths": 2})
        good = build_network(cfg, seed)

        def first_violation(R):
            for f, (o, d) in enumerate(good.od_pairs):
                for n in range(good.node_count):
                    flow_in = sum(R[i, f] for i, (_, b) in enumerate(good.links) if b == n)
                    flow_out = sum(R[i, f] for i, (a, _) in enumerate(good.links) if a == n)
                    if n not in (o, d) and abs(flow_in - flow_out) > 1e-9:
                        return f"flow {f} at node {n}"
            return None

        rng = np.random.default_rng(seed)
        raised = 0
        for _ in range(20):
            R = good.entries.copy()
            for _ in range(rng.integers(1, 4)):
                R[rng.integers(R.shape[0]), rng.integers(R.shape[1])] = rng.choice([0.0, 0.5, 1.0])
            try:
                RoutingMatrix(R, good.od_pairs, good.links, good.node_count)
                named = None
            except ValueError as exc:
                named = re.search(r"flow \d+ at node \d+", str(exc)).group()
                raised += 1
            assert named == first_violation(R)
        assert raised > 0

    def test_routing_valid_path(self):
        r = RoutingMatrix(
            entries=np.array([[1.0], [1.0]]),
            od_pairs=((0, 2),),
            links=((0, 1), (1, 2)),
            node_count=3,
        )
        assert r.shape == (2, 1)

    def test_routing_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RoutingMatrix(
                entries=np.array([[1.5], [1.5]]),
                od_pairs=((0, 2),),
                links=((0, 1), (1, 2)),
                node_count=3,
            )

    def test_observations_reject_leaky_flow_counts(self):
        mask = SamplingMask(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="zero outside"):
            Observations(np.zeros((1, 2)), np.ones((2, 2)), mask)

    def test_bundle_requires_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBundle(np.ones((3, 2)), np.eye(3)[:, :2], np.zeros((3, 3), dtype=bool))

    def test_types_are_frozen(self):
        t = TrafficMatrices(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            t.nominal[0, 0] = 5.0

    def test_subspace_bundle_from_truth(self):
        rng = np.random.default_rng(8)
        X0 = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        A0 = np.zeros((6, 5))
        A0[1, 2] = -1.0
        b = subspace_bundle(X0, A0)
        assert b.rank == 2
        assert b.support.dtype == bool and np.array_equal(b.support, A0 != 0)
        with pytest.raises(ValueError):
            b.support[0, 0] = True

    @pytest.mark.parametrize("shape", [(6, 4), (5, 5), (30,), (6, 5, 1)])
    def test_bundle_rejects_support_of_wrong_shape(self, shape):
        U, V = np.eye(6)[:, :1], np.eye(5)[:, :1]
        with pytest.raises(ValueError, match="support"):
            SubspaceBundle(U, V, np.zeros(shape, dtype=bool))

    def test_subspace_bundle_support_matches_nonzero_anomalies(self):
        rng = np.random.default_rng(9)
        X0 = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 9))
        A0 = np.where(rng.random((7, 9)) < 0.3, rng.standard_normal((7, 9)), 0.0)
        A0[0, 0] = -0.0  # a signed zero is not support
        assert np.array_equal(subspace_bundle(X0, A0).support, A0 != 0)
