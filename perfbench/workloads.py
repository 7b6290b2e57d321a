"""Workload argvs and the checks that decide whether an invocation's output is right.

Every workload is one fixed `ecloner` command line.  An invocation's output
is split into *operations*: one per grid row, one per threshold root and one
for the byte-identity comparison with the run's first invocation.  An
operation fails when its check fails; an invocation that raises or exits
non-zero fails all of its operations.
"""

import math

WORKLOADS = {
    # The analytic engine alone: gate construction, state validation, the
    # machine circuits, criteria, fidelity and the threshold bisection.  The
    # oracle stays idle, so an oracle change must read "no change" here.
    "sweep": ["--points", "200"],
    # Ten 1M-shot sample_circuit calls: RNG, shot propagation and moment
    # accumulation dominate and set the peak memory.
    "oracle": ["--points", "5", "--mc-shots", "1000000"],
    # Four hundred 5k-shot sample_circuit calls: the fixed per-call cost of
    # the oracle (batches, estimate_criteria) rivals the per-shot work.
    "oracle_fine": ["--points", "200", "--mc-shots", "5000"],
}

# `sweep` draws no random numbers, so its argv ignores the seed.
SEEDED = {"oracle", "oracle_fine"}

CLOSED_FORM_TOL = 1e-10
ROOT_TOL = 1e-9
ROOTS = {"inseparability": 0.5, "epr_paradox": 2.0 - math.sqrt(3.0)}
CLOSED_FORMS = {
    "i_local": lambda v: v + 1.0,
    "i_global": lambda v: 2.0 * v,
    "eps_local": lambda v: 4.0,
    "eps_global": lambda v: 16.0 / (v + 1.0 / v) ** 2,
    "f_local": lambda v: 4.0 * v / ((v + 2.0) * (2.0 * v + 1.0)),
    "f_global": lambda v: 4.0 / 9.0,
}
# Sampled column -> analytic column it estimates.
ORACLE_COLUMNS = {
    "mc_i_local": "i_local",
    "mc_eps_local": "eps_local",
    "mc_i_global": "i_global",
    "mc_eps_global": "eps_global",
}

# Batches behind each oracle error bar (montecarlo.NUM_BATCHES at the time
# this benchmark was defined; a change to it changes the bound too); the
# batch-means ratio (mc - analytic) / err then follows a Student t law
# with NUM_BATCHES - 1 degrees of freedom.
NUM_BATCHES = 20
# Family-wise false-alarm probability of one invocation's oracle checks.
# A benchmark campaign makes about a hundred seeded runs, so at 1e-4 a
# correct program raises a false alarm somewhere with probability ~1%.
FAMILY_ALPHA = 1e-4


def argv_for(workload, seed):
    argv = list(WORKLOADS[workload])
    if workload in SEEDED:
        argv += ["--seed", str(seed)]
    return argv


def points_of(workload):
    argv = WORKLOADS[workload]
    return int(argv[argv.index("--points") + 1])


def operations_per_invocation(workload, compared):
    """Rows, threshold roots and (when compared) the byte-identity check."""
    return points_of(workload) + len(ROOTS) + (1 if compared else 0)


def _betacf(a, b, x):
    """Continued fraction of the regularized incomplete beta (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betainc(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t, dof):
    """P(|T| > t) for Student's t with ``dof`` degrees of freedom."""
    return _betainc(0.5 * dof, 0.5, dof / (dof + t * t))


def z_bound(checks, alpha=FAMILY_ALPHA, dof=NUM_BATCHES - 1):
    """Bonferroni bound: P(any of ``checks`` t-ratios exceeds it) <= alpha."""
    target = alpha / checks
    lo, hi = 0.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_two_sided_p(mid, dof) > target:
            lo = mid
        else:
            hi = mid
    return hi


class OutputCheck:
    """Checks one workload's CSV output; collects counts and the worst z."""

    def __init__(self, workload):
        self.points = points_of(workload)
        self.oracle = "--mc-shots" in WORKLOADS[workload]
        self.z_limit = z_bound(len(ORACLE_COLUMNS) * self.points) if self.oracle else None
        self.max_z = 0.0
        self.problems = []

    def check(self, text):
        """Number of failed operations among the rows and roots of ``text``."""
        lines = text.splitlines()
        header = lines[0].split(",") if lines else []
        rows = [line.split(",") for line in lines[1:] if line and not line.startswith("#")]
        comments = [line for line in lines if line.startswith("#")]
        failed = 0
        for index in range(self.points):
            if index >= len(rows) or not self._row_ok(header, rows[index]):
                failed += 1
        if len(rows) > self.points:
            self.problems.append(f"{len(rows)} rows, expected {self.points}")
        for label, root in ROOTS.items():
            if not self._root_ok(comments, label, root):
                failed += 1
        return failed

    def _row_ok(self, header, fields):
        if len(fields) != len(header):
            self.problems.append(f"row has {len(fields)} fields, header {len(header)}")
            return False
        try:
            row = dict(zip(header, (float(f) for f in fields)))
        except ValueError as exc:
            self.problems.append(f"unparsable row: {exc}")
            return False
        v = row.get("v_s", math.nan)
        if not 0.0 < v <= 1.0:
            self.problems.append(f"v_s={v!r} outside (0, 1]")
            return False
        ok = True
        for column, form in CLOSED_FORMS.items():
            value = row.get(column, math.nan)
            if not abs(value - form(v)) <= CLOSED_FORM_TOL:
                self.problems.append(f"{column}={value!r} at v_s={v!r}, closed form {form(v)!r}")
                ok = False
        if self.oracle:
            for column, analytic in ORACLE_COLUMNS.items():
                err = row.get(column + "_err", math.nan)
                if not (err > 0 and math.isfinite(err)):
                    self.problems.append(f"{column}_err={err!r} at v_s={v!r}")
                    ok = False
                    continue
                z = abs(row.get(column, math.nan) - row.get(analytic, math.nan)) / err
                self.max_z = max(self.max_z, z) if math.isfinite(z) else math.inf
                if not z <= self.z_limit:
                    self.problems.append(f"{column} z={z:.2f} > {self.z_limit:.2f} at v_s={v!r}")
                    ok = False
        return ok

    def _root_ok(self, comments, label, root):
        prefix = f"# {label} = 1 at v_s = "
        for line in comments:
            if line.startswith(prefix):
                try:
                    value = float(line[len(prefix) :].split()[0])
                except (ValueError, IndexError):
                    value = math.nan
                if abs(value - root) <= ROOT_TOL:
                    return True
                self.problems.append(f"{label} root {value!r}, expected {root!r}")
                return False
        self.problems.append(f"no {label} root line")
        return False
