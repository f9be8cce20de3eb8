import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from trafficmaps.synth import (
    BurstParams,
    GeoGraphParams,
    InfeasibleRoutingError,
    build_routing,
    choose_od_pairs,
    gen_bursty_anomalies,
    gen_cyclostationary_traffic,
    gen_geometric_graph,
    gen_lowrank_traffic,
    gen_mask,
    gen_sparse_anomalies,
    gen_structured_mask,
    is_connected,
    observe,
)


class TestGeometricGraph:
    def test_zero_radius_no_links(self):
        topo = gen_geometric_graph(GeoGraphParams(5, 0.0, 0))
        assert topo.link_count == 0

    def test_max_radius_complete(self):
        n = 6
        topo = gen_geometric_graph(GeoGraphParams(n, np.sqrt(2) + 1e-9, 0))
        assert topo.link_count == n * (n - 1)

    def test_reference_scale_connected(self):
        topo = gen_geometric_graph(GeoGraphParams(30, 0.35, 0))
        assert is_connected(topo)

    def test_deterministic(self):
        a = gen_geometric_graph(GeoGraphParams(12, 0.5, 99))
        b = gen_geometric_graph(GeoGraphParams(12, 0.5, 99))
        assert a.links == b.links
        assert np.array_equal(a.coords, b.coords)

    def test_links_bidirectional(self):
        topo = gen_geometric_graph(GeoGraphParams(10, 0.6, 3))
        link_set = set(topo.links)
        assert all((b, a) in link_set for a, b in link_set)


class TestBuildRouting:
    def line(self, n=3):
        from trafficmaps.model import Topology

        links = []
        for i in range(n - 1):
            links.append((i, i + 1))
            links.append((i + 1, i))
        return Topology(node_count=n, links=tuple(links))

    def test_line_single_path(self):
        r = build_routing(self.line(), [(0, 2)], 1, seed=0)
        assert r.shape == (2, 1)
        assert np.allclose(np.sort(r.entries.ravel()), [1.0, 1.0])
        assert set(r.links) == {(0, 1), (1, 2)}

    def test_unreachable_pair(self):
        from trafficmaps.model import Topology

        topo = Topology(node_count=3, links=((0, 1), (1, 0)))
        with pytest.raises(InfeasibleRoutingError):
            build_routing(topo, [(0, 2)], 1, seed=0)

    def test_fraction_sums_and_conservation(self):
        topo = gen_geometric_graph(GeoGraphParams(12, 0.55, 5))
        od = choose_od_pairs(topo, 20, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = build_routing(topo, od, 3, seed=7)
        # Conservation is validated in the constructor; check fraction totals
        # at each origin: outgoing minus incoming at the origin equals 1.
        for f, (o, d) in enumerate(r.od_pairs):
            out_frac = sum(r.entries[i, f] for i, (a, _) in enumerate(r.links) if a == o)
            in_frac = sum(r.entries[i, f] for i, (_, b) in enumerate(r.links) if b == o)
            assert out_frac - in_frac == pytest.approx(1.0, abs=1e-9)

    def test_reference_scale_nullspace(self):
        topo = gen_geometric_graph(GeoGraphParams(30, 0.35, 0))
        od = choose_od_pairs(topo, 290, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = build_routing(topo, od, 1, seed=2)
            r3 = build_routing(topo, od, 3, seed=2)
        dim1 = 290 - np.linalg.matrix_rank(r1.entries)
        dim3 = 290 - np.linalg.matrix_rank(r3.entries)
        assert dim1 > 0
        assert 100 <= r1.shape[0] <= 250
        assert r3.shape[0] > r1.shape[0]
        assert dim3 < dim1

    def test_deterministic(self):
        topo = gen_geometric_graph(GeoGraphParams(10, 0.6, 1))
        od = choose_od_pairs(topo, 8, seed=2)
        a = build_routing(topo, od, 2, seed=3)
        b = build_routing(topo, od, 2, seed=3)
        assert np.array_equal(a.entries, b.entries)
        assert a.links == b.links


class TestLowRankTraffic:
    def test_zero_rank(self):
        assert np.array_equal(gen_lowrank_traffic(4, 5, 0, 0), np.zeros((4, 5)))

    def test_exact_rank(self):
        X = gen_lowrank_traffic(50, 50, 2, seed=11)
        s = np.linalg.svd(X, compute_uv=False)
        assert s[1] > 0
        assert s[2] < 1e-10 * s[0]

    def test_rank_too_large(self):
        with pytest.raises(ValueError):
            gen_lowrank_traffic(4, 5, 5, 0)

    def test_expected_energy(self):
        # E||L Q'||_F^2 = rho * F * (1/F) * T * (1/T) = rho.
        rho, trials = 3, 1000
        total = 0.0
        for seed in range(trials):
            X = gen_lowrank_traffic(50, 50, rho, seed=seed)
            total += np.linalg.norm(X) ** 2
        assert total / trials == pytest.approx(rho, rel=0.05)


class TestSparseAnomalies:
    def test_zero_probability(self):
        assert np.array_equal(gen_sparse_anomalies(5, 5, 0.0, 0), np.zeros((5, 5)))

    def test_prob_one_all_signed(self):
        A = gen_sparse_anomalies(20, 20, 1.0, 0)
        assert np.isin(A, (-1.0, 1.0)).all()

    def test_values(self):
        A = gen_sparse_anomalies(40, 40, 0.3, 1)
        assert np.isin(A, (-1.0, 0.0, 1.0)).all()

    def test_binomial_concentration(self):
        A = gen_sparse_anomalies(290, 290, 0.02, seed=5)
        frac = np.mean(A != 0)
        assert 0.015 <= frac <= 0.025


class TestBurstyAnomalies:
    def params(self, **kw):
        base = dict(
            gamma_f=50.0, theta=0.999, sigma_n=0.005, alpha=0.98, nu=0.03,
            anomalous_flows=(0, 2),
        )
        base.update(kw)
        return BurstParams(**base)

    def test_never_activate(self):
        A = gen_bursty_anomalies(4, 200, self.params(nu=0.0), seed=0)
        assert np.array_equal(A, np.zeros((4, 200)))

    def test_zero_innovation(self):
        A = gen_bursty_anomalies(4, 200, self.params(sigma_n=0.0), seed=0)
        assert np.array_equal(A, np.zeros((4, 200)))

    def test_non_anomalous_rows_zero(self):
        A = gen_bursty_anomalies(5, 2000, self.params(), seed=1)
        assert np.abs(A[[1, 3, 4]]).max() == 0.0
        assert np.abs(A[[0, 2]]).max() > 0.0

    def test_deterministic(self):
        a = gen_bursty_anomalies(5, 100, self.params(), seed=3)
        b = gen_bursty_anomalies(5, 100, self.params(), seed=3)
        assert np.array_equal(a, b)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            self.params(theta=1.0)

    def test_ar1_part_matches_lfilter(self):
        # alpha = nu = 1 keeps every burst on and gamma_f = 1 leaves the AR(1)
        # part c itself, drawn from the first standard normals of the seed.
        rng = np.random.default_rng(1000)
        for seed in range(20):
            m, T = int(rng.integers(1, 6)), int(rng.integers(1, 200))
            theta, sigma_n = float(rng.uniform(-0.999, 0.999)), float(rng.uniform(0.0, 3.0))
            bp = self.params(gamma_f=1.0, theta=theta, sigma_n=sigma_n, alpha=1.0, nu=1.0,
                             anomalous_flows=tuple(range(m)))
            A = gen_bursty_anomalies(m + 1, T, bp, seed)
            innovations = np.random.default_rng(seed).standard_normal((m, T))
            expected = lfilter([sigma_n], [1.0, -theta], innovations, axis=1)
            assert np.array_equal(A[:m], expected)
            assert not A[m].any()


class TestMasks:
    def test_full_and_empty(self):
        assert gen_mask(4, 4, 1.0, 0).mask.all()
        assert not gen_mask(4, 4, 0.0, 0).mask.any()

    def test_concentration(self):
        F = T = 100
        pi = 0.25
        m = gen_mask(F, T, pi, seed=2)
        std = np.sqrt(pi * (1 - pi) / (F * T))
        assert abs(m.observed_fraction - pi) <= 3 * std

    def test_structured_fraction(self):
        m = gen_structured_mask(121, 288, 0.1, 0.1, seed=4)
        assert abs(m.observed_fraction - 0.09) <= 0.01
        fully_missing = (~m.mask).all(axis=1).sum()
        assert fully_missing >= round(0.1 * 121)


class TestObserve:
    def routing(self):
        from trafficmaps.model import RoutingMatrix

        return RoutingMatrix(
            entries=np.array([[1.0], [1.0]]),
            od_pairs=((0, 2),),
            links=((0, 1), (1, 2)),
            node_count=3,
        )

    def test_noiseless_full_mask(self):
        from trafficmaps.model import SamplingMask

        X0 = np.array([[2.0]])
        A0 = np.zeros((1, 1))
        obs = observe(self.routing(), X0, A0, SamplingMask(np.ones((1, 1), bool)))
        assert np.array_equal(obs.flow_counts, X0)

    def test_zero_traffic(self):
        from trafficmaps.model import SamplingMask

        obs = observe(
            self.routing(), np.zeros((1, 3)), np.zeros((1, 3)),
            SamplingMask(np.ones((1, 3), bool)),
        )
        assert np.abs(obs.link_counts).max() == 0.0
        assert np.abs(obs.flow_counts).max() == 0.0

    def test_line_example(self):
        from trafficmaps.model import SamplingMask

        obs = observe(
            self.routing(), np.array([[2.0]]), np.array([[1.0]]),
            SamplingMask(np.ones((1, 1), bool)),
        )
        assert np.array_equal(obs.link_counts, [[3.0], [3.0]])

    def test_noise_masked(self):
        from trafficmaps.model import SamplingMask

        mask = SamplingMask(np.array([[True, False]]))
        obs = observe(
            self.routing(), np.ones((1, 2)), np.zeros((1, 2)), mask,
            sigma_v=0.1, sigma_w=0.1, seed=7,
        )
        assert obs.flow_counts[0, 1] == 0.0

    def test_deterministic(self):
        from trafficmaps.model import SamplingMask

        mask = SamplingMask(np.ones((1, 4), bool))
        kw = dict(sigma_v=0.3, sigma_w=0.2, seed=9)
        a = observe(self.routing(), np.ones((1, 4)), np.zeros((1, 4)), mask, **kw)
        b = observe(self.routing(), np.ones((1, 4)), np.zeros((1, 4)), mask, **kw)
        assert np.array_equal(a.link_counts, b.link_counts)
        assert np.array_equal(a.flow_counts, b.flow_counts)


class TestCyclostationary:
    def test_shape_and_rank(self):
        X = gen_cyclostationary_traffic(10, 24, 4, 2, seed=0)
        assert X.shape == (10, 96)
        day = X[:, :24]
        s = np.linalg.svd(day, compute_uv=False)
        assert s[2] < 1e-10 * s[0]

    def test_deterministic(self):
        a = gen_cyclostationary_traffic(6, 12, 3, 2, seed=5)
        b = gen_cyclostationary_traffic(6, 12, 3, 2, seed=5)
        assert np.array_equal(a, b)
