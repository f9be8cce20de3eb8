"""Correctness checks made apart from the program.

Each check reads the files a command wrote and either recomputes a quantity
with its own formula or tests a property the method must have.  None compares
against a stored copy of earlier output, and none calls into `trafficmaps`.
Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import os

import numpy as np


def read_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2))


def read_kv(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, value = line.split("=", 1)
                out[key] = value
    return out


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(data[pos + 1:pos + 1 + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w)


class Scenario:
    """A scenario directory as the README documents it, read without the program."""

    def __init__(self, path):
        self.R = read_csv(os.path.join(path, "routing.csv"))
        self.X0 = read_csv(os.path.join(path, "nominal.csv"))
        self.A0 = read_csv(os.path.join(path, "anomalies.csv"))
        self.mask = read_csv(os.path.join(path, "mask.csv")) != 0.0
        self.Y = read_csv(os.path.join(path, "link_counts.csv"))
        self.Z = read_csv(os.path.join(path, "flow_counts.csv"))


def nuclear(M) -> float:
    return float(np.linalg.svd(M, compute_uv=False).sum())


def relative_error(est, truth) -> float:
    return float(np.linalg.norm(est - truth) / np.linalg.norm(truth))


def p1_objective(sc: Scenario, X, A, lambda_star, lambda_1) -> float:
    fit_y = sc.Y - sc.R @ (X + A)
    fit_z = np.where(sc.mask, sc.Z - X - A, 0.0)
    return float(0.5 * np.sum(fit_y**2) + 0.5 * np.sum(fit_z**2)
                 + lambda_star * nuclear(X) + lambda_1 * np.abs(A).sum())


def p6_objective(sc: Scenario, X, A, O_y, O_z, w) -> float:
    fit_y = sc.Y - sc.R @ (X + A) - O_y
    fit_z = np.where(sc.mask, sc.Z - X - A - O_z, 0.0)
    return float(0.5 * np.sum(fit_y**2) + 0.5 * np.sum(fit_z**2)
                 + w["lambda_star"] * nuclear(X) + w["lambda_1"] * np.abs(A).sum()
                 + w["lambda_y"] * np.abs(O_y).sum() + w["lambda_z"] * np.abs(O_z).sum())


def check_solve(kind: str, scenario_dir: str, out_dir: str, weights: dict) -> list:
    """Per-estimator property of one `solve` output directory.

    p2: exact recovery (e_x + e_a <= 1e-3 against the truth files) and small
    constraint residuals.  p1/p6: the penalized objective, by this module's
    formula, is no greater at the estimate than at the ground truth.  p5 with
    identity priors: the P1 objective at the estimate is no greater than the
    P5 objective in report.txt, since ||L Q'||_* <= (||L||^2 + ||Q||^2)/2 and
    |b c| <= (b^2 + c^2)/2.
    """
    sc = Scenario(scenario_dir)
    X = read_csv(os.path.join(out_dir, "X_hat.csv"))
    A = read_csv(os.path.join(out_dir, "A_hat.csv"))
    if X.shape != sc.X0.shape or A.shape != sc.A0.shape:
        return [f"{kind}: estimate shape {X.shape} differs from truth {sc.X0.shape}"]
    problems = []
    if kind == "p2":
        err = relative_error(X, sc.X0) + relative_error(A, sc.A0)
        if not err <= 1e-3:
            problems.append(f"p2: e_x+e_a = {err:.3e} > 1e-3")
        scale = 1.0 + np.linalg.norm(sc.Y)
        r_y = np.linalg.norm(sc.Y - sc.R @ (X + A)) / scale
        r_z = np.linalg.norm(np.where(sc.mask, sc.Z - X - A, 0.0)) / scale
        if not max(r_y, r_z) <= 1e-4:
            problems.append(f"p2: constraint residuals {r_y:.3e}, {r_z:.3e} > 1e-4")
    elif kind == "p1":
        at_est = p1_objective(sc, X, A, weights["lambda_star"], weights["lambda_1"])
        at_truth = p1_objective(sc, sc.X0, sc.A0, weights["lambda_star"], weights["lambda_1"])
        if not at_est <= at_truth:
            problems.append(f"p1: objective {at_est:.9e} above its value at the truth {at_truth:.9e}")
    elif kind == "p6":
        O_y = read_csv(os.path.join(out_dir, "outliers_link.csv"))
        O_z = read_csv(os.path.join(out_dir, "outliers_flow.csv"))
        at_est = p6_objective(sc, X, A, O_y, O_z, weights)
        at_truth = p6_objective(sc, sc.X0, sc.A0, 0.0 * O_y, 0.0 * O_z, weights)
        if not at_est <= at_truth:
            problems.append(f"p6: objective {at_est:.9e} above its value at the truth {at_truth:.9e}")
    elif kind == "p5":
        reported = float(read_kv(os.path.join(out_dir, "report.txt"))["objective"])
        p1_val = p1_objective(sc, X, A, weights["lambda_star"], weights["lambda_1"])
        # report.txt rounds to 13 significant digits.
        if not p1_val <= reported * (1.0 + 1e-11) + 1e-15:
            problems.append(f"p5: P1 objective {p1_val:.12e} above reported P5 objective {reported:.12e}")
    else:
        problems.append(f"unknown estimator {kind!r}")
    return problems


def gray(errors: np.ndarray) -> np.ndarray:
    """The README's mapping: error <= 0.01 white, >= 1 black, linear between."""
    v = np.clip((errors - 0.01) / 0.99, 0.0, 1.0)
    return np.clip(np.round(255.0 * (1.0 - v)), 0, 255).astype(np.uint8)


def check_phase_grid(out_dir: str, easiest=(0, 0)) -> list:
    errors = read_csv(os.path.join(out_dir, "phase_grid.csv"))
    image = read_pgm(os.path.join(out_dir, "phase_grid.pgm"))
    problems = []
    if image.shape != errors.shape:
        return [f"phase-grid: PGM shape {image.shape} differs from CSV {errors.shape}"]
    if not (np.isfinite(errors) & (errors >= 0)).all():
        problems.append("phase-grid: cell errors are negative or not finite")
    bad = int((gray(errors) != image).sum())
    if bad:
        problems.append(f"phase-grid: {bad} PGM pixels differ from the gray mapping of the CSV")
    if easiest is not None and image[easiest] != 255:
        problems.append(f"phase-grid: easiest cell {easiest} is not white "
                        f"(error {errors[easiest]:.3e})")
    meta = read_kv(os.path.join(out_dir, "phase_meta.txt"))
    if int(meta["white_cells"]) != int((errors <= 0.01).sum()):
        problems.append("phase-grid: white_cells in phase_meta.txt disagrees with the CSV")
    return problems


def check_burst_compare(out_dir: str) -> list:
    truth = read_csv(os.path.join(out_dir, "anomaly_map_true.csv"))
    reported = read_kv(os.path.join(out_dir, "compare.txt"))
    problems = []
    for kind in ("p1", "p5"):
        est = read_csv(os.path.join(out_dir, f"anomaly_map_{kind}.csv"))
        e_a = relative_error(est, truth)
        ref = float(reported[f"e_a_{kind}"])
        if not abs(e_a - ref) <= 1e-9 * max(1.0, abs(ref)):
            problems.append(f"burst-compare: e_a_{kind} recomputed {e_a:.12e} vs reported {ref:.12e}")
    return problems


def check_mm_objectives(objectives) -> list:
    """The MM objective trace is non-increasing (up to rounding)."""
    obj = np.asarray(objectives, dtype=np.float64)
    rises = np.flatnonzero(obj[1:] > obj[:-1] * (1.0 + 1e-12) + 1e-300)
    if rises.size:
        k = int(rises[0])
        return [f"mm: objective rose at iteration {k + 1}: {obj[k]:.15e} -> {obj[k + 1]:.15e}"]
    return []


def _tangent_gram(U, V, idx_f, idx_t) -> np.ndarray:
    """Gram matrix of the tangent-space projector restricted to coordinates."""
    Pu = (U @ U.T)[np.ix_(idx_f, idx_f)]
    Pv = (V @ V.T)[np.ix_(idx_t, idx_t)]
    same_t = (idx_t[:, None] == idx_t[None, :]).astype(float)
    same_f = (idx_f[:, None] == idx_f[None, :]).astype(float)
    return Pu * same_t + same_f * Pv - Pu * Pv


def _nullspace_gram(P_null, idx_f, idx_t) -> np.ndarray:
    same_t = (idx_t[:, None] == idx_t[None, :]).astype(float)
    return P_null[np.ix_(idx_f, idx_f)] * same_t


def _top(G) -> float:
    if G.size == 0:
        return 0.0
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def exact_incoherences(sc: Scenario) -> dict:
    """alpha, beta, xi, nu from the exact Gram matrices of coordinate subspaces.

    When one subspace is spanned by coordinates S, sigma_max(P_A P_S)^2 is the
    largest eigenvalue of P_A restricted to S, a |S|-by-|S| matrix.
    """
    U, s, Vt = np.linalg.svd(sc.X0, full_matrices=False)
    r = int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
    U, V = U[:, :r], Vt[:r].T
    _, sr, Rvt = np.linalg.svd(sc.R)
    F = sc.R.shape[1]
    rcond = max(sc.R.shape) * np.finfo(float).eps * (sr[0] if sr.size else 0.0)
    rank = int(np.sum(sr > rcond))
    K = Rvt[rank:].T if rank < F else np.zeros((F, 0))
    P_null = K @ K.T
    support = sc.A0 != 0
    hidden = ~sc.mask
    out = {}
    f, t = np.nonzero(support)
    out["alpha"] = _top(_tangent_gram(U, V, f, t))
    out["beta"] = _top(_nullspace_gram(P_null, f, t)) if K.shape[1] else 0.0
    fh, th = np.nonzero(hidden)
    out["xi"] = _top(_tangent_gram(U, V, fh, th))
    fs, ts = np.nonzero(support & hidden)
    out["nu"] = _top(_nullspace_gram(P_null, fs, ts)) if K.shape[1] else 0.0
    return out


def check_diagnose(scenario_dir: str, out_dir: str, tol: float = 1e-8) -> list:
    """alpha, beta and nu agree with the exact values to mu's own tolerance.

    xi is held only to the bound every power iteration obeys (a Rayleigh
    quotient never exceeds the top eigenvalue): where xi is within ~1e-3 of
    1, mu stops at its iteration cap up to 2e-6 short of the exact value,
    depending on the scenario.
    """
    sc = Scenario(scenario_dir)
    report = read_kv(os.path.join(out_dir, "diagnose.txt"))
    exact = exact_incoherences(sc)
    problems = []
    for key, value in exact.items():
        got = float(report[key])
        ok = got <= value + 1e-12 if key == "xi" else abs(got - value) <= tol
        if not ok:
            problems.append(f"diagnose: {key} = {got!r}, exact value {value!r}")
    return problems


def check_recovery(scenario_dir: str, out_dir: str, tol: float = 1e-4) -> list:
    """A p2 solve at the certificate's lambda recovered the truth exactly."""
    sc = Scenario(scenario_dir)
    X = read_csv(os.path.join(out_dir, "X_hat.csv"))
    A = read_csv(os.path.join(out_dir, "A_hat.csv"))
    err = relative_error(X, sc.X0) + relative_error(A, sc.A0)
    if not err <= tol:
        return [f"diagnose: certificate passed but p2 at its lambda gives e_x+e_a = {err:.3e}"]
    return []
