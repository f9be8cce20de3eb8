import inspect
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space

import trafficmaps.diagnostics as diagnostics
from trafficmaps.admm import AdmmConfig, admm_solve_p2, default_lambda
from trafficmaps.diagnostics import (
    NotLocallyIdentifiableError,
    SizeGuardError,
    TrivialNullspaceError,
    demonstrate_nonidentifiability,
    dual_certificate,
    gammas,
    instance_bases,
    intersect_nullspaces,
    measure_incoherences,
    mu,
    nullspace_Pi_basis,
    nullspace_R_basis,
    omega_basis,
    phi_basis,
    tau,
    check_recovery_conditions,
)
from trafficmaps.model import (
    SamplingMask,
    SubspaceBundle,
    TrafficMatrices,
    relative_errors,
    routing_entries,
    subspace_bundle,
)
from trafficmaps.pipelines import ExperimentConfig, build_scenario
from trafficmaps.synth import gen_lowrank_traffic, gen_mask, gen_structured_mask, observe


def canonical_bundle(F, T, r=1):
    U0 = np.zeros((F, r))
    V0 = np.zeros((T, r))
    for i in range(r):
        U0[i, i] = 1.0
        V0[i, i] = 1.0
    return SubspaceBundle(U0, V0, np.zeros((F, T), dtype=bool))


def cells(shape, idx=()):
    """Boolean support matrix of `shape`, True at the (flow, time) pairs of idx."""
    S = np.zeros(shape, dtype=bool)
    for f, t in idx:
        S[f, t] = True
    return S


def random_bundle(F, T, r, support=(), seed=0):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((F, r)))
    V, _ = np.linalg.qr(rng.standard_normal((T, r)))
    return SubspaceBundle(U, V, cells((F, T), support))


class TestBases:
    def test_trivial_kernel_empty(self):
        R = np.eye(3)
        assert nullspace_R_basis(R, 4).dim == 0
        mask = SamplingMask(np.zeros((3, 4), dtype=bool))
        assert intersect_nullspaces(R, mask).dim == 0

    def test_full_mask_empty_pi_nullspace(self):
        mask = SamplingMask(np.ones((3, 4), dtype=bool))
        assert nullspace_Pi_basis(mask).dim == 0
        assert intersect_nullspaces(np.zeros((2, 3)), mask).dim == 0

    def test_hand_intersection(self):
        R = np.array([[1.0, 1.0]])
        mask = SamplingMask(np.zeros((2, 1), dtype=bool))
        basis = intersect_nullspaces(R, mask)
        assert basis.dim == 1
        v = basis.vectors[:, 0]
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(v, expected) or np.allclose(v, -expected)

    def test_nullspace_R_dimension(self):
        rng = np.random.default_rng(1)
        R = rng.random((2, 5))
        T = 3
        basis = nullspace_R_basis(R, T)
        assert basis.dim == 3 * T  # kernel dim 3 per column
        # every basis element is annihilated by R
        for j in range(basis.dim):
            H = basis.vectors[:, j].reshape(5, T)
            assert np.abs(R @ H).max() < 1e-10

    def test_phi_basis_dimension(self):
        b = random_bundle(6, 5, 2, seed=2)
        basis = phi_basis(b)
        assert basis.dim == 2 * (6 + 5 - 2)
        # projecting with the basis agrees with the closed-form projector
        from trafficmaps.model import project_phi

        rng = np.random.default_rng(3)
        Z = rng.standard_normal((6, 5))
        assert np.allclose(basis.project(Z), project_phi(b, Z), atol=1e-10)

    def test_size_guard(self):
        R = np.ones((1, 200))
        with pytest.raises(SizeGuardError):
            nullspace_R_basis(R, 150)


def reference_bases(R, mask, bundle):
    """The five bases built one vector at a time, as a dense reference."""
    F, T = bundle.shape

    def stack(cols):
        return np.column_stack(cols) if cols else np.zeros((F * T, 0))

    def coordinate(cells):
        return stack([np.eye(F * T)[:, k] for k in np.flatnonzero(cells)])

    K = null_space(R)
    nr = np.zeros((F * T, K.shape[1] * T))
    for i in range(K.shape[1]):
        for t in range(T):
            nr[t::T, i * T + t] = K[:, i]
    inter = []
    for t in range(T):
        hidden = np.flatnonzero(~mask.mask[:, t])
        if hidden.size:
            Kt = null_space(R[:, hidden])
            for i in range(Kt.shape[1]):
                v = np.zeros(F * T)
                v[hidden * T + t] = Kt[:, i]
                inter.append(v)
    phi = []
    if bundle.rank:
        U0, V0 = bundle.U0, bundle.V0
        for i in range(bundle.rank):
            for t in range(T):
                M = np.zeros((F, T))
                M[:, t] = U0[:, i]
                phi.append(M.ravel())
        G = null_space(U0.T)
        for j in range(G.shape[1]):
            for i in range(bundle.rank):
                phi.append(np.outer(G[:, j], V0[:, i]).ravel())
    return {
        "nullspace_R_basis": nr,
        "nullspace_Pi_basis": coordinate(~mask.mask),
        "intersect_nullspaces": stack(inter),
        "omega_basis": coordinate(bundle.support),
        "phi_basis": stack(phi),
    }


def basis_case(name, F=6, T=5):
    """(R, mask, bundle) for one named case of the construction tests."""
    rng = np.random.default_rng(11)
    R = rng.random((3, F))
    mask = gen_mask(F, T, 0.5, 12)
    support = {(0, 1), (2, 3), (5, 4), (4, 0)}
    rank = {"rank-0": 0, "rank-1": 1}.get(name, 2)
    if name == "full-mask":
        mask = SamplingMask(np.ones((F, T), bool))
    elif name == "injective-routing":
        R = rng.random((F + 2, F))
    elif name == "structured-mask":
        mask = gen_structured_mask(F, T, 0.35, 0.3, 13)
    if rank == 0:  # and no anomalies
        bundle = SubspaceBundle(np.zeros((F, 0)), np.zeros((T, 0)), cells((F, T)))
    else:
        bundle = random_bundle(F, T, rank, support, seed=14)
    return R, mask, bundle


BASIS_CASES = ["rank-0", "rank-1", "rank-2", "full-mask", "injective-routing",
               "structured-mask"]


def built_bases(R, mask, bundle):
    return {
        "nullspace_R_basis": nullspace_R_basis(R, bundle.shape[1]),
        "nullspace_Pi_basis": nullspace_Pi_basis(mask),
        "intersect_nullspaces": intersect_nullspaces(R, mask),
        "omega_basis": omega_basis(bundle.support),
        "phi_basis": phi_basis(bundle),
    }


def null_space_cases():
    rng = np.random.default_rng(16)
    low = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))
    return {
        "tall-full-rank": rng.standard_normal((7, 4)),
        "wide-full-rank": rng.standard_normal((3, 8)),
        "square-full-rank": rng.standard_normal((5, 5)),
        "tall-rank-deficient": low,
        "wide-rank-deficient": low.T,
        "routing-like": (rng.random((4, 9)) < 0.4).astype(float),
        "zero": np.zeros((4, 6)),
        "no-rows": np.zeros((0, 5)),
        "no-columns": np.zeros((3, 0)),
    }


class TestNullSpace:
    """diagnostics._null_space against scipy.linalg.null_space."""

    @pytest.mark.parametrize("name", list(null_space_cases()))
    def test_matches_scipy(self, name):
        A = null_space_cases()[name]
        got, ref = diagnostics._null_space(A), null_space(A)
        assert got.shape == ref.shape
        assert np.abs(got.T @ got - np.eye(got.shape[1])).max(initial=0.0) <= 1e-12
        assert np.abs(got @ got.T - ref @ ref.T).max(initial=0.0) <= 1e-12
        assert np.abs(A @ got).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(A).max(initial=0.0))

    def test_cases_cover_each_kind(self):
        dims = {name: null_space(A).shape[1] for name, A in null_space_cases().items()}
        assert dims["tall-full-rank"] == dims["square-full-rank"] == 0
        assert dims["wide-full-rank"] == 5 and dims["tall-rank-deficient"] == 3
        assert dims["zero"] == 6 and dims["no-rows"] == 5 and dims["no-columns"] == 0


class TestBasesByConstruction:
    """Each builder is orthonormal by construction; nothing re-checks it at
    run time, so these cases do."""

    @pytest.mark.parametrize("name", BASIS_CASES)
    def test_orthonormal_and_equal_to_reference(self, name):
        R, mask, bundle = basis_case(name)
        reference = reference_bases(R, mask, bundle)
        for builder, basis in built_bases(R, mask, bundle).items():
            V = basis.vectors
            assert np.abs(V.T @ V - np.eye(basis.dim)).max(initial=0.0) <= 1e-12, builder
            assert np.array_equal(V, reference[builder]), builder

    def test_cases_cover_empty_and_nonempty_bases(self):
        dims = {name: {b: v.dim for b, v in built_bases(*basis_case(name)).items()}
                for name in BASIS_CASES}
        for builder in dims["rank-2"]:
            seen = {dims[name][builder] > 0 for name in BASIS_CASES}
            assert seen == {True, False}, builder
        assert dims["rank-0"]["phi_basis"] == dims["rank-0"]["omega_basis"] == 0
        assert dims["full-mask"]["nullspace_Pi_basis"] == 0
        assert dims["injective-routing"]["nullspace_R_basis"] == 0
        assert dims["structured-mask"]["intersect_nullspaces"] > 0


class TestMu:
    def test_orthogonal_subspaces(self):
        a = omega_basis(cells((3, 3), {(0, 0)}))
        b = omega_basis(cells((3, 3), {(1, 1), (2, 0)}))
        assert mu(a, b) == 0.0

    def test_identical_subspaces(self):
        a = omega_basis(cells((3, 3), {(0, 1), (2, 2)}))
        assert mu(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_spiky_overlap(self):
        b = canonical_bundle(4, 3)
        om = omega_basis(cells((4, 3), {(0, 0)}))
        assert mu(om, phi_basis(b)) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        b = random_bundle(5, 6, 2, seed=4)
        om = omega_basis(cells((5, 6), {(0, 1), (3, 4), (2, 2)}))
        assert abs(mu(om, phi_basis(b)) - mu(phi_basis(b), om)) < 1e-6

    def test_range_and_dense_agreement(self):
        rng = np.random.default_rng(5)
        F = T = 10
        b = random_bundle(F, T, 2, seed=6)
        phi = phi_basis(b)
        support = {(int(f), int(t)) for f, t in zip(rng.integers(0, F, 8), rng.integers(0, T, 8))}
        om = omega_basis(cells((F, T), support))
        val = mu(om, phi)
        assert 0.0 <= val <= 1.0
        # dense operator oracle: sigma_max of P_omega P_phi
        D = np.empty((F * T, F * T))
        for k in range(F * T):
            E = np.zeros(F * T)
            E[k] = 1.0
            D[:, k] = om.project(phi.project(E.reshape(F, T))).ravel()
        dense = np.linalg.svd(D, compute_uv=False)[0]
        assert val == pytest.approx(dense, abs=1e-6)

    def test_zero_subspace(self):
        empty = omega_basis(cells((3, 3), set()))
        other = omega_basis(cells((3, 3), {(0, 0)}))
        assert mu(empty, other) == 0.0

    @pytest.mark.parametrize("seed", [3, 4, 5, 7])
    def test_xi_is_exact_hidden_tangent_cosine(self, seed):
        # 20x20, rank 2, a quarter sampled: xi is within 5e-4 of 1, where an
        # iterative estimate stops short.  sigma_max(P_Npi P_Phi)^2 is the top
        # eigenvalue of P_Phi restricted to the hidden coordinates.
        X0 = gen_lowrank_traffic(20, 20, 2, seed + 3)
        mask = gen_mask(20, 20, 0.25, seed + 5)
        b = subspace_bundle(X0, np.zeros((20, 20)))
        f, t = np.nonzero(~mask.mask)
        Pu = (b.U0 @ b.U0.T)[np.ix_(f, f)]
        Pv = (b.V0 @ b.V0.T)[np.ix_(t, t)]
        G = Pu * (t[:, None] == t) + (f[:, None] == f) * Pv - Pu * Pv
        exact = np.sqrt(np.linalg.eigvalsh(G)[-1])
        assert abs(mu(nullspace_Pi_basis(mask), phi_basis(b)) - exact) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mu(omega_basis(cells((3, 3), {(0, 0)})), omega_basis(cells((3, 4), {(0, 0)})))

    @pytest.mark.parametrize("other", ["phi_basis", "nullspace_R_basis",
                                       "intersect_nullspaces", "nullspace_Pi_basis"])
    @pytest.mark.parametrize("coordinate_first", [True, False], ids=["S-first", "S-second"])
    def test_row_selection_equals_dense_product(self, other, coordinate_first):
        # V_S' V_B for a coordinate subspace S is B's rows at S's cells, and
        # mu reads sigma_max off it from either argument position.
        bases = built_bases(*basis_case("structured-mask"))
        S, B = bases["omega_basis"], bases[other]
        product = S.vectors.T @ B.vectors
        assert np.array_equal(product, B.vectors[S.cells])
        dense = np.linalg.svd(product, compute_uv=False)[0]
        assert abs(mu(*((S, B) if coordinate_first else (B, S))) - dense) <= 1e-12

    def test_pair_without_coordinate_side_rejected(self):
        R, _, b = basis_case("rank-2")
        with pytest.raises(ValueError, match="coordinate"):
            mu(phi_basis(b), nullspace_R_basis(R, b.shape[1]))


class TestGammas:
    def test_spiky_column_space(self):
        b = canonical_bundle(5, 4)
        g_u, g_v, g_uv, eta = gammas(b)
        assert g_u == 1.0 and g_v == 1.0 and g_uv == 1.0 and eta == 2.0

    def test_flat_column_space(self):
        F = 9
        U0 = np.ones((F, 1)) / np.sqrt(F)
        V0 = np.zeros((4, 1))
        V0[0] = 1.0
        b = SubspaceBundle(U0, V0, np.zeros((F, 4), dtype=bool))
        g_u, _, _, _ = gammas(b)
        assert g_u == pytest.approx(1 / np.sqrt(F))


class TestTau:
    def test_trivial_intersection(self):
        assert tau(intersect_nullspaces(np.eye(3), SamplingMask(np.zeros((3, 2), bool)))) == 0.0

    def test_one_dimensional_exact(self):
        R = np.array([[1.0, 1.0]])
        mask = SamplingMask(np.zeros((2, 1), bool))
        # unique direction (1,-1)/sqrt(2), unit spectral norm; tau = max entry
        assert tau(intersect_nullspaces(R, mask)) == pytest.approx(1 / np.sqrt(2), rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 3, 6])  # intersection dimension 2, 7, 5, 1
    def test_brute_force_single_column_elements(self, seed):
        # Single-column elements of N_R cap N_Pi, built from the dense basis:
        # random ones never beat tau, and the projection of e_f onto column
        # t's part of the intersection reaches it for some (f, t).
        R, _, _, mask, _ = tiny_instance(seed, pi=0.3)
        F, T = mask.shape
        basis = intersect_nullspaces(R, mask)
        value = tau(basis)
        assert basis.dim > 0
        V = basis.vectors.reshape(F, T, basis.dim)
        rng = np.random.default_rng(seed)

        def ratio(H):
            assert np.abs(R @ H).max() < 1e-12 and not H[mask.mask].any()
            return np.abs(H).max() / np.linalg.norm(H, 2)

        best = 0.0
        for t in range(T):
            Q = V[:, t, np.abs(V[:, t, :]).max(axis=0) > 0]
            if Q.shape[1] == 0:
                continue
            H = np.zeros((F, T))
            for c in rng.standard_normal((50, Q.shape[1])):
                H[:, t] = Q @ c
                assert ratio(H) <= value + 1e-12
            for f in range(F):
                if np.abs(Q[f]).max() > 0:
                    H[:, t] = Q @ Q[f]
                    best = max(best, ratio(H))
        assert best == pytest.approx(value, abs=1e-12)
        for c in rng.standard_normal((200, basis.dim)):
            assert ratio((basis.vectors @ c).reshape(F, T)) <= value + 1e-12

    @staticmethod
    def diagnose_scale_instance(seed):
        # The benchmark's diagnose scale: 8 nodes, 20x20, 1 path, rank 2,
        # a quarter of the flow entries sampled.
        cfg = ExperimentConfig({
            "synth.nodes": 8, "synth.radius": 0.5, "synth.flows": 20, "synth.periods": 20,
            "synth.rank": 2, "synth.anomaly_prob": 0.01, "synth.paths": 1,
            "synth.sample_prob": 0.25,
        })
        sc = build_scenario(cfg, seed)
        return routing_entries(sc.routing), sc.obs.mask

    def test_beats_random_probe_search(self):
        # 256 random probes and a Nelder-Mead polish found 0.72609 here.
        R, mask = self.diagnose_scale_instance(2)
        assert intersect_nullspaces(R, mask).dim == 42
        assert tau(intersect_nullspaces(R, mask)) >= 0.7385

    def test_relabelling_invariant(self):
        R, mask = self.diagnose_scale_instance(2)
        rng = np.random.default_rng(0)
        flows, periods = rng.permutation(20), rng.permutation(20)
        relabelled = intersect_nullspaces(R[:, flows], SamplingMask(mask.mask[flows][:, periods]))
        assert abs(tau(relabelled) - tau(intersect_nullspaces(R, mask))) <= 1e-15


class TestRecoveryConditions:
    def test_all_zero_inputs(self):
        rep = check_recovery_conditions(0, 0, 0, 0, 0, 0, 0, 1)
        assert rep.f == 1.0 and rep.g == 0.0 and rep.h == 0.0 and rep.q == 0.0
        assert rep.e == 1.0
        assert rep.lambda_max == 1.0
        assert rep.lambda_min == 0.0
        assert rep.feasible

    def test_alpha_near_one_infeasible(self):
        for alpha in (0.9, 0.95, 0.99):
            rep = check_recovery_conditions(alpha, 0.1, 0.1, 0.1, 0.5, 0.1, 0.05, 2)
            assert not rep.feasible

    def test_chi_at_one_infeasible(self):
        rep = check_recovery_conditions(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1,
                             mu_npi_omega=0.0, null_intersection_dim=2)
        assert rep.chi >= 1.0
        assert not rep.feasible

    def test_chi_bypass_when_trivial_intersection(self):
        rep = check_recovery_conditions(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1,
                             null_intersection_dim=0)
        assert rep.chi == 0.0

    def test_pure_function(self):
        args = (0.2, 0.1, 0.15, 0.05, 0.4, 0.1, 0.08, 3, 0.2, 4)
        a = check_recovery_conditions(*args)
        b = check_recovery_conditions(*args)
        assert a == b

    def test_f_nonpositive_reason(self):
        rep = check_recovery_conditions(0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1)
        assert rep.f <= 0
        assert not rep.feasible
        assert rep.reason == "f <= 0"

    def test_zero_k_gives_infinite_lambda_max(self):
        rep = check_recovery_conditions(0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.05, 0)
        assert rep.lambda_max == np.inf

    @staticmethod
    def inline_conditions(lam, a, b_, xi, nu_, eta, tau_v, gam, k):
        """The certificate's former inline copy of the Theorem algebra."""
        one_m_a2 = 1.0 - a**2
        f_den = 1.0 - nu_ * b_ - (xi + a * nu_) * one_m_a2 * (xi + a * b_)
        if f_den > 0:
            theta = (xi + lam * k * nu_ + a * (xi + a * nu_) * one_m_a2 * (a + lam * k)) / f_den
        else:
            theta = np.inf
        cond_a_lhs = (
            lam * k + a + a * one_m_a2 * (a * (a + lam * k) + (a * b_ + xi) * theta)
            + (1.0 + nu_) * theta
        )
        cond_b_lhs = gam + eta * a * lam * k + (tau_v + eta * a + eta * xi) * theta
        return theta, cond_a_lhs, cond_b_lhs

    def test_conditions_match_inline_oracle(self):
        rng = np.random.default_rng(11)
        seen_f_nonpositive = seen_k_zero = 0
        for i in range(400):
            alpha, beta, xi, nu, tau_v, gam = rng.random(6)
            if i % 4 == 0:  # corners: a measure at 0 or 1
                alpha, beta, xi, nu = rng.choice([0.0, 1.0, alpha], size=4)
            eta = 2.0 * rng.random()
            k = int(rng.integers(0, 6)) if i % 3 else 0
            lam = float(10.0 ** rng.uniform(-3, 1))
            rep = check_recovery_conditions(alpha, beta, xi, nu, eta, tau_v, gam, k)
            seen_f_nonpositive += rep.f <= 0
            seen_k_zero += k == 0
            with np.errstate(invalid="ignore"):  # 0 * inf where theta is infinite
                got = rep.conditions(lam)
                want = self.inline_conditions(lam, alpha, beta, xi, nu, eta, tau_v, gam, k)
            for g, w, bound in zip(got, want, (np.inf, 1.0, lam)):
                if np.isnan(w):  # the inline form's 0 * inf; the condition fails either way
                    assert not g < bound
                elif np.isinf(w):
                    assert g == w
                else:
                    assert abs(g - w) <= 1e-12 * max(abs(w), 1e-300)
        assert seen_f_nonpositive >= 10 and seen_k_zero >= 100


class TestNonidentifiability:
    def test_construction_claims(self):
        R = np.array([[1.0, 1.0]])
        X0 = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        X1 = demonstrate_nonidentifiability(R, X0, seed=0)
        assert np.abs(X1 - X0).max() > 1e-6
        assert np.abs(R @ (X1 - X0)).max() < 1e-9
        s = np.linalg.svd(X1, compute_uv=False)
        assert s[1] < 1e-9 * s[0]  # rank(X1) <= rank(X0) = 1

    def test_injective_routing_raises(self):
        with pytest.raises(TrivialNullspaceError):
            demonstrate_nonidentifiability(np.eye(3), np.ones((3, 2)))

    def test_exact_feasibility(self):
        rng = np.random.default_rng(7)
        R = rng.random((2, 4))
        X0 = gen_lowrank_traffic(4, 5, 2, seed=8)
        X1 = demonstrate_nonidentifiability(R, X0, seed=1)
        assert np.linalg.norm(R @ X1 - R @ X0) < 1e-9


def tiny_instance(seed, F=8, T=8, L=6, r=1, s=2, pi=0.7):
    rng = np.random.default_rng(seed)
    R = (rng.random((L, F)) < 0.5).astype(float)
    X0 = gen_lowrank_traffic(F, T, r, seed + 1) * 3
    A0 = np.zeros((F, T))
    idx = rng.choice(F * T, size=s, replace=False)
    A0.flat[idx] = rng.choice([-1.0, 1.0], size=s)
    mask = gen_mask(F, T, pi, seed + 2)
    obs = observe(R, X0, A0, mask)
    return R, X0, A0, mask, obs


class TestDualCertificate:
    def test_closed_form_case(self):
        # A0 = 0, full sampling, identity routing: Gamma must equal U0 V0'.
        F = T = 5
        b = random_bundle(F, T, 2, seed=9)
        mask = SamplingMask(np.ones((F, T), bool))
        uv = b.U0 @ b.V0.T
        lam = np.abs(uv).max() * 1.5
        cert = dual_certificate(b, lam, instance_bases(np.eye(F), mask, b))
        assert np.allclose(cert.gamma_matrix, uv, atol=1e-9)
        assert cert.passes

    def test_small_lambda_fails_c5(self):
        F = T = 5
        b = random_bundle(F, T, 2, seed=10)
        mask = SamplingMask(np.ones((F, T), bool))
        uv = b.U0 @ b.V0.T
        cert = dual_certificate(b, np.abs(uv).max() * 0.5, instance_bases(np.eye(F), mask, b))
        assert not cert.c5_ok

    def test_overlapping_subspaces_raise(self):
        F = T = 4
        b = canonical_bundle(F, T)  # column/row space spanned by e1
        bundle = SubspaceBundle(b.U0, b.V0, cells((F, T), {(0, 0)}))  # omega inside phi
        mask = SamplingMask(np.ones((F, T), bool))
        bases = instance_bases(np.eye(F), mask, bundle)
        with pytest.raises(NotLocallyIdentifiableError):
            dual_certificate(bundle, 0.5, bases)

    def test_zero_sign_on_support_raises(self):
        F = T = 5
        b = random_bundle(F, T, 1, support={(1, 2), (3, 0)}, seed=9)
        mask = SamplingMask(np.ones((F, T), bool))
        signs = cells((F, T), {(1, 2)}).astype(float)  # zero at (3, 0)
        bases = instance_bases(np.eye(F), mask, b)
        with pytest.raises(ValueError, match="sign"):
            dual_certificate(b, 0.5, bases, sign_A0=signs)

    def test_battery_certificate_implies_recovery(self):
        n_pass = 0
        for seed in range(12):
            R, X0, A0, mask, obs = tiny_instance(seed)
            bundle = subspace_bundle(X0, A0)
            try:
                cert = dual_certificate(bundle, 0.4, instance_bases(R, mask, bundle), sign_A0=A0)
            except NotLocallyIdentifiableError:
                continue
            if not cert.passes:
                continue
            n_pass += 1
            X, A, _ = admm_solve_p2(
                obs, R,
                AdmmConfig(lam=0.4, max_iters=20000, tol_primal=1e-11, tol_dual=1e-11),
            )
            e_sum = relative_errors(TrafficMatrices(X, A), TrafficMatrices(X0, A0))[2]
            assert e_sum < 1e-4
        assert n_pass >= 1  # the battery must actually exercise the implication

    def test_feasible_instance_certificate_and_recovery(self):
        # Flat singular vectors, a single anomaly, identity routing, and full
        # sampling make the closed-form conditions hold; the certificate and
        # the solver must then agree end to end.
        from trafficmaps.synth import observe

        F = T = 12
        u = np.ones(F) / np.sqrt(F)
        v = np.ones(T) + 0.1 * np.cos(2 * np.pi * np.arange(T) / T)
        v /= np.linalg.norm(v)
        X0 = 2.0 * np.outer(u, v)
        A0 = np.zeros((F, T))
        A0[3, 4] = 1.0
        mask = SamplingMask(np.ones((F, T), bool))
        R = np.eye(F)
        bundle = subspace_bundle(X0, A0)
        bases = instance_bases(R, mask, bundle)
        rep = check_recovery_conditions(**measure_incoherences(R, mask, bundle, bases))
        assert rep.feasible
        lam = 0.5 * (rep.lambda_min + rep.lambda_max)
        cert = dual_certificate(bundle, lam, bases, sign_A0=A0)
        assert cert.passes
        obs = observe(R, X0, A0, mask)
        X, A, _ = admm_solve_p2(
            obs, R, AdmmConfig(lam=lam, max_iters=20000, tol_primal=1e-11, tol_dual=1e-11)
        )
        e_sum = relative_errors(TrafficMatrices(X, A), TrafficMatrices(X0, A0))[2]
        assert e_sum < 1e-6

    def test_measures_keys(self):
        R, X0, A0, mask, _ = tiny_instance(3)
        bundle = subspace_bundle(X0, A0)
        m = measure_incoherences(R, mask, bundle, instance_bases(R, mask, bundle))
        # exactly the arguments of the recovery check
        assert list(m) == list(inspect.signature(check_recovery_conditions).parameters)
        assert 0.0 <= m["alpha"] <= 1.0
        assert m["k_max_col"] == max(np.count_nonzero(A0[:, t]) for t in range(8))


def test_diagnostics_peak_memory_stays_near_one_sampling_basis():
    # The largest basis is the sampling nullspace's; measuring the instance
    # and building its certificate should not hold much beyond it (a runtime
    # V'V check on that basis alone took the peak to 3.4 times it).
    cfg = ExperimentConfig({"synth.nodes": 10, "synth.flows": 40, "synth.periods": 40,
                            "synth.paths": 2})
    scenario = build_scenario(cfg, 3)
    routing, mask, truth = scenario.routing, scenario.obs.mask, scenario.truth
    bundle = subspace_bundle(truth.nominal, truth.anomalies)
    npi_bytes = nullspace_Pi_basis(mask).vectors.nbytes
    tracemalloc.start()
    try:
        bases = instance_bases(routing, mask, bundle)
        measure_incoherences(routing, mask, bundle, bases)
        dual_certificate(bundle, default_lambda(40, 40), bases, sign_A0=truth.anomalies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * npi_bytes
