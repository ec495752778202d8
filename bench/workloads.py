"""The benchmark's three workloads: inputs, one timed pass, and its gates.

Each workload turns ``--seed`` into its inputs and runs passes over them;
``prepare(k)`` returns the key of pass k's inputs, equal keys meaning equal
inputs.  A pass calls only public functions of kernel_spectra, always
through the module attribute, so that the span tracer's wrappers see every
call.  Gates run after a pass, outside the timed region; each gate is one
operation, and a failed gate or an exception is one failed operation.

Random points are stratified (one draw in each of n equal-probability
strata, in seeded order), so that every seed puts the same amount of work
in each part of the domain and pass times depend little on the seed.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

from kernel_spectra import iterated, kernel, quadrature, spectra, tails, zeta


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of U(0, 1), one in each stratum [i/n, (i+1)/n), shuffled."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def log_uniform(u, lo, hi):
    """Map u in [0, 1) onto [lo, hi) with uniform log."""
    return lo * (hi / lo) ** np.asarray(u, dtype=float)


def max_abs_rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def report_exception(context: str) -> None:
    print(f"# {context} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Spectrum:
    name = "spectrum"
    why = ("Nystrom spectrum on the default 256-node grid; the hand-rolled Jacobi "
           "eigensolve is about 96% of a pass, and tails/iterated are never called")
    roadmap = ("moves with a LAPACK eigensolver in place of Jacobi (spectra.eigensolve.self_s "
               "-> solve_s); holds under a batched K2 matrix, which it never calls; "
               "kernel.k_eval is a small share")

    N_POINTS = 2000
    EIGENPAIRS = 5
    # lambda_1..5 recorded from the seed code at N = 256
    LAMBDA = (12.475209245731333, -14.360534270171275, 14.474753907071202,
              -17.290536104493082, 17.84464231832241)
    LAMBDA_REL = 1e-9
    # ten times eigensolve's default off-diagonal target (1e-11)
    RESIDUAL = 1e-10
    ORTHO = 1e-10
    NODE_REL = 1e-9
    GATES = ("lambda_1..5", "eigen_residual", "orthonormality", "evaluate_at_nodes",
             "evaluate_bound")

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.points = 1.0 - stratified(rng, self.N_POINTS)  # in (0, 1]

    def prepare(self, k: int) -> int:
        """Inputs are the same for every pass."""
        return 0

    @staticmethod
    def warm_up() -> None:
        rule = quadrature.uniform_rule(4, 4)
        spec = spectra.eigensolve(spectra.assemble(rule))
        spectra.evaluate(spectra.eigenfunction(spec, 1, rule), 0.5)

    def run_pass(self):
        rule = quadrature.uniform_rule()
        op = spectra.assemble(rule)
        spec = spectra.eigensolve(op)
        handles = [spectra.eigenfunction(spec, j, rule) for j in range(1, self.EIGENPAIRS + 1)]
        values = [spectra.evaluate(h, self.points) for h in handles]
        return {"rule": rule, "op": op, "spec": spec, "handles": handles, "values": values}

    def check(self, out) -> dict[str, bool]:
        spec, rule = out["spec"], out["rule"]
        lam = spec.eigenvalues[: self.EIGENPAIRS]
        v = spec.vectors
        resid = np.max(np.abs(out["op"].matrix @ v - v * spec.matrix_eigenvalues))
        ortho = np.max(np.abs(v.T @ v - np.eye(v.shape[1])))
        node_err = max(
            np.max(np.abs(spectra.evaluate(h, rule.nodes) - h.node_values))
            / np.max(np.abs(h.node_values))
            for h in out["handles"])
        # |phi(x)| <= |lambda| (sum w K^2)^(1/2) |phi|_grid <= |lambda| / 2
        bounded = all(
            np.all(np.isfinite(val)) and np.all(np.abs(val) <= 0.5 * abs(h.eigenvalue))
            for h, val in zip(out["handles"], out["values"]))
        return {
            "lambda_1..5": lam.size == self.EIGENPAIRS
            and max_abs_rel(lam, self.LAMBDA) <= self.LAMBDA_REL,
            "eigen_residual": bool(resid <= self.RESIDUAL),
            "orthonormality": bool(ortho <= self.ORTHO),
            "evaluate_at_nodes": bool(node_err <= self.NODE_REL),
            "evaluate_bound": bool(bounded),
        }

    def fingerprint(self, out) -> bytes:
        return out["spec"].eigenvalues.tobytes() + b"".join(v.tobytes() for v in out["values"])

    def accuracy(self, out) -> dict:
        return {"lambda_1..5": out["spec"].eigenvalues[: self.EIGENPAIRS].tolist()}

    def spot_checks(self) -> dict[str, bool]:
        return {}


class K2XCheck:
    name = "k2_xcheck"
    why = ("direct spectrum plus the iterated-kernel cross-check at N = 128; the K2 matrix "
           "fill (8256 scalar k2_closed calls, mostly tails) is about 90% of a pass")
    roadmap = ("moves with a batched K2 matrix (iterated.k2_closed and its tails and "
               "composite_rule children -> solve_s); moves a little with a LAPACK "
               "eigensolver (two small Jacobi solves, spectra.cross_validate_k2.self_s)")

    COUNT = 5
    KERNEL_TOL = 1e-7  # cross_validate_k2's default entry tolerance
    N_SPOT = 12
    # recorded from the seed code on uniform_rule(32, 4)
    LAMBDA = (12.320181416193265, -14.097860922448247, 14.531966018164782,
              -16.383078681937764, 17.375349542401082)
    REL_DISCREPANCIES = (0.023320928158836067, 0.034771164097042784, 0.02319727035728117,
                         0.09836147117476991, 0.03047466587475371)
    LAMBDA_REL = 1e-9
    GATES = ("lambda_1..5", "k2_finite", "k2_trace", "route_discrepancies")

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n = 128
        i = rng.integers(0, n, self.N_SPOT)
        k = (i + 1 + rng.integers(0, n - 1, self.N_SPOT)) % n  # k != i
        self.spot = list(zip(i.tolist(), k.tolist()))

    def prepare(self, k: int) -> int:
        """Inputs are the same for every pass."""
        return 0

    @staticmethod
    def warm_up() -> None:
        rule = quadrature.uniform_rule(2, 4)
        spectra.cross_validate_k2(rule, count=2)

    def run_pass(self):
        rule = quadrature.uniform_rule(32, 4)
        spec = spectra.eigensolve(spectra.assemble(rule))
        xc = spectra.cross_validate_k2(rule, count=self.COUNT, spectrum=spec)
        return {"rule": rule, "spec": spec, "xc": xc}

    def check(self, out) -> dict[str, bool]:
        lam = out["spec"].eigenvalues[: self.COUNT]
        xc = out["xc"]
        mu2 = xc.k2_matrix_eigenvalues
        # trace of the K2 Nystrom matrix = sum_i w_i K2(x_i, x_i); each entry is
        # within KERNEL_TOL and the weights sum to 1
        trace_err = abs(float(np.sum(mu2)) - xc.hs_norm_sq)
        # an entry error below KERNEL_TOL moves each mu2 by at most KERNEL_TOL,
        # which moves rel_j by at most KERNEL_TOL * lambda_j^2
        slack = self.KERNEL_TOL * np.asarray(self.LAMBDA) ** 2 + 1e-9
        rel = xc.rel_discrepancies
        return {
            "lambda_1..5": lam.size == self.COUNT and max_abs_rel(lam, self.LAMBDA) <= self.LAMBDA_REL,
            "k2_finite": bool(np.all(np.isfinite(mu2))) and mu2.size == out["rule"].nodes.size,
            "k2_trace": trace_err <= self.KERNEL_TOL + 1e-12,
            "route_discrepancies": rel.size == self.COUNT
            and bool(np.all(np.abs(rel - self.REL_DISCREPANCIES) <= slack)),
        }

    def fingerprint(self, out) -> bytes:
        xc = out["xc"]
        return (out["spec"].eigenvalues.tobytes() + xc.k2_matrix_eigenvalues.tobytes()
                + xc.rel_discrepancies.tobytes())

    def accuracy(self, out) -> dict:
        return {"lambda_1..5": out["spec"].eigenvalues[: self.COUNT].tolist(),
                "rel_discrepancies": out["xc"].rel_discrepancies.tolist(),
                "k2_route_err": float(np.max(out["xc"].rel_discrepancies))}

    def spot_checks(self) -> dict[str, bool]:
        """Seeded entries of the K2 matrix: symmetric, finite, and on the quadrature route."""
        x = quadrature.uniform_rule(32, 4).nodes
        ev = iterated.K2Evaluator(tol=self.KERNEL_TOL)
        out = {}
        for i, k in self.spot:
            xi, xk = float(x[i]), float(x[k])
            try:
                a = iterated.k2_closed(xi, xk, ev)
                b = iterated.k2_closed(xk, xi, ev)
                c = iterated.k2_quadrature(xi, xk, ev)
                out[f"k2[{i},{k}]"] = math.isfinite(a) and a == b and abs(a - c) <= 2 * self.KERNEL_TOL
            except Exception:
                report_exception(f"k2 spot entry ({i}, {k})")
                out[f"k2[{i},{k}]"] = False
        return out


# (kind, module, function) of the pointwise queries
POINTWISE_KINDS = (
    ("k2_closed", iterated, "k2_closed"),
    ("k2_quadrature", iterated, "k2_quadrature"),
    ("k2_diag_exact", iterated, "k2_diag_exact"),
    ("kernel_moment", tails, "kernel_moment"),
    ("zeta_connect", zeta, "zeta_connect_residual"),
    ("euler_limit", zeta, "euler_limit_residual"),
    ("em_identity", zeta, "em_identity_residual"),
    ("laplace_h", zeta, "laplace_h_residual"),
    ("stirling_alt", zeta, "stirling_alt_residual"),
    ("i0_eval", iterated, "i0_eval"),
    ("delta_r", kernel, "delta_r"),
)
KIND = {k: i for i, (k, _, _) in enumerate(POINTWISE_KINDS)}
RESIDUAL_KINDS = ("zeta_connect", "euler_limit", "em_identity", "laplace_h", "stirling_alt")


def on_small_rational(x: float, y: float, max_den: int = 12) -> bool:
    """Whether max/min of (x, y) is within 2 ulp of p/q with q <= max_den.

    Such ratios take b2_series' exact Hurwitz-zeta path, whose test is the
    same 2-ulp window with a larger denominator cap.
    """
    beta = max(x, y) / min(x, y)
    fr = Fraction(beta).limit_denominator(max_den)
    return abs(beta - fr.numerator / fr.denominator) <= 2.0 * math.ulp(beta)


class Pointwise:
    name = "pointwise"
    why = ("about 2000 independent scalar queries (K2 routes, kernel moments, zeta residuals, "
           "i0_eval, delta_r) at log-uniform points; tails are used one call at a time "
           "and no eigensolver runs")
    roadmap = ("holds under a LAPACK eigensolver (none runs); shows a batched K2 rewrite that "
               "slows the scalar k2_closed/tails path (call_p50_ms, call_p99_ms); moves with "
               "library swaps for zeta.zeta, bernoulli.log_factorial and gauss_legendre")

    LO, HI = 0.01, 1.0
    N_PAIRS = 280          # each gives one k2_closed and one k2_quadrature query
    RATIONAL_SHARE = 0.25  # of the pairs, y/x = p/q with q <= 12
    N_DIAG = 120           # each gives one k2_closed(x, x) and one k2_diag_exact(x)
    N_MOMENT = 230
    N_ZETA = 140           # each of zeta_connect, euler_limit, em_identity, stirling_alt
    N_LAPLACE = 100
    N_DELTA = 240
    N_I0 = 90
    # on a 2-core Xeon, i0_eval costs about 6 (x/y)^1.5 ms; past x/y = 10 one call takes 1-7 s
    # and would dominate a pass, so its pairs keep x/y in [1/10, 10]
    I0_RATIO = 10.0
    K2_TOL = iterated.K2Evaluator().tol  # k2_closed / k2_quadrature default tol
    RESID_TOL = 1e-10   # tol passed to every zeta residual
    MOMENT_TOL = 1e-11  # kernel_moment's default tol
    N_SPOT = 3          # mpmath spot points per identity, checked once per run

    def __init__(self, seed: int):
        self.seed = seed
        self.key = None
        self.prepare(0)
        self.GATES = tuple(range(len(self.queries)))  # one gate per query
        self._spot_rng = np.random.default_rng([seed, 0, 0])  # apart from the [seed, k] of passes

    def prepare(self, k: int) -> int:
        """Draw the queries of pass k from (seed, k).

        Every pass gets fresh points and exponents: kernel_moment and the zeta
        residuals cache a tail ladder per exponent, and independent queries
        would not find their exponent cached.
        """
        if self.key == k:
            return k
        rng = np.random.default_rng([self.seed, k])
        lo, hi = self.LO, self.HI
        C = iterated.OFF_DIAGONAL_BOUND  # |K2(x, y)| <= C min/max
        queries = []  # (kind index, args, lower bound, upper bound)

        def add(kind, args, bound=(-math.inf, math.inf)):
            queries.append((KIND[kind], args) + tuple(bound))

        n_rat = int(round(self.RATIONAL_SHARE * self.N_PAIRS))
        n_irr = self.N_PAIRS - n_rat
        x = log_uniform(stratified(rng, n_irr), lo, hi)
        y = log_uniform(stratified(rng, n_irr), lo, hi)
        pairs = list(zip(x.tolist(), y.tolist()))
        q = rng.integers(1, 13, n_rat)
        p = np.maximum(1, np.rint(log_uniform(stratified(rng, n_rat), 1 / 12, 12) * q)).astype(int)
        p = np.where(p == q, p + 1, p)  # keep off the diagonal
        for pi, qi, ui in zip(p.tolist(), q.tolist(), stratified(rng, n_rat).tolist()):
            ratio = pi / qi
            xr = float(log_uniform(ui, max(lo, lo / ratio), min(hi, hi / ratio) * (1 - 1e-12)))
            pairs.append((xr, xr * pi / qi))
        self.rational_share = sum(on_small_rational(a, b) for a, b in pairs) / len(pairs)
        for a, b in pairs:
            c = C * min(a, b) / max(a, b)
            add("k2_closed", (a, b), (-c, c))
            add("k2_quadrature", (a, b), (-c, c))
        diag = log_uniform(stratified(rng, self.N_DIAG), lo, hi).tolist()
        for d in diag:
            add("k2_closed", (d, d), (-C, C))
            add("k2_diag_exact", (d,), (-C, C))

        xm = log_uniform(stratified(rng, self.N_MOMENT), lo, hi).tolist()
        sm = (-0.5 + 3.5 * stratified(rng, self.N_MOMENT)).tolist()
        for a, s in zip(xm, sm):
            b = 0.5 / (s + 1.0)  # |K| <= 1/2
            add("kernel_moment", (a, s, self.MOMENT_TOL), (-b, b))

        tol = self.RESID_TOL
        n = self.N_ZETA
        for a, s in zip(log_uniform(stratified(rng, n), lo, hi).tolist(),
                        (0.25 + 2.75 * stratified(rng, n)).tolist()):
            add("zeta_connect", (s, a, tol), (0.0, tol))
        for a in log_uniform(stratified(rng, n), lo, hi).tolist():
            add("euler_limit", (a, tol), (0.0, tol))
        for a, s in zip(log_uniform(stratified(rng, n), lo, hi).tolist(),
                        (3.0 * stratified(rng, n)).tolist()):
            add("em_identity", (s, a, tol), (0.0, tol))
        for a in log_uniform(stratified(rng, n), lo, hi).tolist():
            # cutoff term |int_0^eps K(a,y)/y dy| <= a eps / 6 < tol / 6
            add("stirling_alt", (a, a * 1e-10, tol), (0.0, tol))
        s_lap = 0.25 + 3.7 * stratified(rng, self.N_LAPLACE)
        s_lap = np.where(s_lap >= 0.95, s_lap + 0.05, s_lap)  # step over the pole at s = 1
        for s in s_lap.tolist():
            add("laplace_h", (s, tol), (0.0, tol))

        # i0_eval: x/y log-uniform on [1/I0_RATIO, I0_RATIO], then x log-uniform
        # over the values that keep both points in [lo, hi]
        r = log_uniform(stratified(rng, self.N_I0), 1 / self.I0_RATIO, self.I0_RATIO)
        for ri, ui in zip(r.tolist(), stratified(rng, self.N_I0).tolist()):
            xi = float(log_uniform(ui, max(lo, lo * ri), min(hi, hi * ri) * (1 - 1e-12)))
            add("i0_eval", (xi, xi / ri), (-C * xi, C * xi))

        a = log_uniform(stratified(rng, self.N_DELTA), lo, hi).tolist()
        b = log_uniform(stratified(rng, self.N_DELTA), lo, hi).tolist()
        for args in zip(a, b, (2.0 * stratified(rng, self.N_DELTA)).tolist()):
            add("delta_r", args, (0.0, 1.0 / (args[2] + 1.0)))  # |K(a,z) - K(b,z)| <= 1

        queries = [queries[i] for i in rng.permutation(len(queries))]
        self.queries = [(kind, args) for kind, args, _, _ in queries]
        self.lower = np.array([query[2] for query in queries])
        self.upper = np.array([query[3] for query in queries])
        self.kind_of = np.array([kind for kind, _ in self.queries])
        where = {query: i for i, query in enumerate(self.queries)}
        self.pair_idx = np.array([(where[(KIND["k2_closed"], pq)], where[(KIND["k2_quadrature"], pq)])
                                  for pq in pairs])
        self.diag_idx = np.array([(where[(KIND["k2_closed"], (d, d))], where[(KIND["k2_diag_exact"], (d,))])
                                  for d in diag])
        self.key = k
        return k

    @staticmethod
    def warm_up() -> None:
        iterated.k2_closed(0.5, 0.3)
        iterated.k2_closed(0.5, 0.25)
        iterated.k2_quadrature(0.5, 0.3)
        iterated.k2_diag_exact(0.5)
        tails.kernel_moment(0.5, 1.0)
        zeta.zeta_connect_residual(1.0, 0.5)
        zeta.euler_limit_residual(0.5)
        zeta.em_identity_residual(1.0, 0.5)
        zeta.laplace_h_residual(2.0)
        zeta.stirling_alt_residual(0.5, 1e-9)
        iterated.i0_eval(0.5, 0.5)
        kernel.delta_r(0.5, 0.3, 1.0)

    def run_pass(self):
        values = [math.nan] * len(self.queries)
        latency = np.empty(len(self.queries))
        clock = time.perf_counter_ns
        table = POINTWISE_KINDS
        for i, (kind, args) in enumerate(self.queries):
            _, mod, fn = table[kind]
            t0 = clock()
            try:
                values[i] = getattr(mod, fn)(*args)
            except Exception:
                report_exception(f"pointwise query {table[kind][0]}{args}")
            latency[i] = clock() - t0
        return {"values": np.array(values, dtype=float), "latency_ns": latency}

    def check(self, out) -> dict[int, bool]:
        """One gate per query: finite and inside its bound; paired queries also agree.

        k2_quadrature must match the k2_closed value of its pair within 2 tol, and
        k2_diag_exact the k2_closed(x, x) value within tol.
        """
        v = out["values"]
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(v) & (v >= self.lower) & (v <= self.upper)
            c, q = self.pair_idx.T
            ok[q] &= np.abs(v[q] - v[c]) <= 2 * self.K2_TOL
            c, e = self.diag_idx.T
            ok[e] &= np.abs(v[e] - v[c]) <= self.K2_TOL
        return dict(enumerate(ok.tolist()))

    def fingerprint(self, out) -> bytes:
        return out["values"].tobytes()

    def accuracy(self, out) -> dict:
        v = out["values"]
        c, q = self.pair_idx.T
        resid = np.isin(self.kind_of, [KIND[k] for k in RESIDUAL_KINDS])
        return {"rational_share": self.rational_share,
                "k2_route_max_abs": float(np.max(np.abs(v[q] - v[c]))),
                "zeta_residual_max": float(np.max(v[resid]))}

    def spot_checks(self) -> dict[str, bool]:
        """kernel_moment against mpmath right-hand sides of the zeta identities.

        Each identity gives the exact moment int_0^1 K(x,y) y^s dy, here with
        mpmath.zeta and mpmath.loggamma in place of the library's own zeta and
        log_factorial; kernel_moment must meet its stated tol against it.
        """
        import mpmath as mp

        rng = self._spot_rng
        tol = self.MOMENT_TOL

        def k1(x):  # K(1, x) = 1/2 + floor(1/x) - 1/x
            inv = 1 / mp.mpf(x)
            return mp.mpf(1) / 2 + mp.floor(inv) - inv

        def harmonic(n, p):
            return mp.fsum(mp.mpf(k) ** (-p) for k in range(1, n + 1))

        out = {}
        with mp.workdps(40):
            cases = []
            for x, s in zip(log_uniform(rng.random(self.N_SPOT), self.LO, self.HI).tolist(),
                            (0.25 + 2.75 * rng.random(self.N_SPOT)).tolist()):
                X, S = mp.mpf(x), mp.mpf(s)
                rhs = mp.zeta(S + 1) - harmonic(math.floor(1 / x), S + 1) - X**S / S + X ** (S + 1) * k1(x)
                cases.append((f"zeta_connect(s={s:.4g}, x={x:.4g})", x, s, rhs / ((S + 1) * X ** (S + 1))))
            for x in log_uniform(rng.random(self.N_SPOT), self.LO, self.HI).tolist():
                X = mp.mpf(x)
                rhs = mp.euler - harmonic(math.floor(1 / x), 1) + mp.log(1 / X) + X * k1(x)
                cases.append((f"euler_limit(x={x:.4g})", x, 0.0, rhs / X))
            for x in log_uniform(rng.random(self.N_SPOT), self.LO, self.HI).tolist():
                n, X = math.floor(1 / x), mp.mpf(x)
                rhs = mp.loggamma(n + 1) - n * mp.log(1 / X) + 1 / X - mp.log(2 * mp.pi / X) / 2
                cases.append((f"stirling(x={x:.4g})", x, -1.0, rhs))
            for s in (1.5 + 2.5 * rng.random(self.N_SPOT)).tolist():
                S = mp.mpf(s)
                rhs = (mp.zeta(S) - 1 / (S - 1) - mp.mpf(1) / 2) / S
                cases.append((f"laplace_h(s={s:.4g})", 1.0, s - 1.0, rhs))
            for label, x, s, exact in cases:
                key = f"kernel_moment vs mpmath {label}"
                try:
                    out[key] = bool(abs(mp.mpf(tails.kernel_moment(x, s, tol)) - exact) <= tol)
                except Exception:
                    report_exception(f"mpmath spot check {label}")
                    out[key] = False
        return out


WORKLOADS = {w.name: w for w in (Spectrum, K2XCheck, Pointwise)}
