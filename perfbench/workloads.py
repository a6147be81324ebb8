"""The workloads: a seeded batch of inputs, one operation, and its check.

Each workload builds its batch of distinct inputs from the benchmark seed
alone, so every client of one run builds the same batch.  A run measures
operations on the batch's inputs in turn, and checks each operation's
output afterwards, outside the timed region.  ``check`` returns the
failure classes of one operation; an empty list means it passed.

Failure classes in ``KNOWN`` are the radial-layer defects listed in
ROADMAP item 4.  They count as failed inputs like any other failure, but
only a class outside ``KNOWN`` marks the run as incorrect.  The batches
are drawn over the full input ranges, stratified so that each batch
holds the same number of inputs from each failing part of the range
(its share of the range, rounded, and at least one) whatever the seed.

numpy and qkepler are imported inside the functions that use them, so
the parent process of ``run.py`` can load this module without them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

KNOWN = frozenset({
    # quadrature norm overflows, so the normalized profile reads all zeros
    "radial.norm_overflow",
    # eigensolve raises ValueError (its under-resolution guard)
    "radial.eigensolve_raised",
    # the 1000-point second-order grid misses 1e-4 at (n, sb, l) = (2, 0, 0)
    "radial.eigensolve_tolerance.g1k",
})

OP_TIMEOUT_S = 60.0
EIGEN_TOL = 1e-4      # default tolerance of `qkepler eigensolve`
RESIDUAL_TOL = 1e-8   # default tolerance of `qkepler residual`
PROFILE_TOL = 1e-8    # normalized profile against the closed-form norm
WAVE_SAMPLES = (0.2, 10.0, 9)  # --lo, --hi, --points of profile samples
# the sizes of the kernel rows (ROADMAP item 1)
WEYL_RANKS = (4, 8, 16, 32)
GENFUNC_K = (12, 40, 80)
EIGEN_GRIDS = (1000, 4000, 16000, 64000)
# Of the 149240 states with 2 <= n <= 8, sigma_bar <= 12, 1 <= k <= 40
# and l <= 40, 8900 have a closed-form squared t-norm beyond the largest
# double; their quadrature norm overflows (`radial.norm_overflow`).
OVERFLOW_SHARE = 8900 / 149240
# Of the 3731 eigensolve cases (n, sigma_bar, l) in range, only this one
# misses EIGEN_TOL on any of EIGEN_GRIDS (on the 1000-point grid), and
# none raises.  Every `radial` batch holds it once.
EIGEN_MISS = (2, 0, 0)
LOG_DBL_MAX = math.log(sys.float_info.max)


def grid_label(g: int) -> str:
    return f"g{g // 1000}k"


def package_modules() -> list:
    """The qkepler modules imported so far."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "qkepler" or name.startswith("qkepler."))]


def clear_caches() -> None:
    """Empty the package's ``functools`` caches, as a new process would."""
    for mod in package_modules():
        for val in list(vars(mod).values()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """One fresh `qkepler` process, as a user starts it from a shell."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "qkepler.cli", *argv],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=OP_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    """The same command through ``qkepler.cli.run`` in this process."""
    from qkepler import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue().encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# closed-form radial states, drawn over the full range


def _log_norm2_t(s) -> float:
    """log of the closed-form t-norm (nu/2)^(a+2) * 2 nu * (a+m)!/m!."""
    nu = float(s.nu)
    a, m = s.laguerre_index, s.laguerre_degree
    return ((a + 2) * math.log(nu / 2.0) + math.log(2.0 * nu)
            + math.lgamma(a + m + 1) - math.lgamma(m + 1))


def _state(key):
    from qkepler import radial, spectral
    n, sb, k, l = key
    return radial.RadialState(spectral.ModelParams(n, sb), k, l)


def draw_states(rng, count: int, taken: set) -> list[tuple]:
    """``count`` distinct states (n, sb, k, l) not in ``taken``.

    Exactly ``round(count * OVERFLOW_SHARE)`` of them, first in the list,
    have a closed-form norm beyond the double range; the rest do not.
    """
    overflowing = round(count * OVERFLOW_SHARE)
    out = []
    while len(out) < count:
        key = (rng.randint(2, 8), rng.randint(0, 12), rng.randint(1, 40),
               rng.randint(0, 40))
        if key in taken:
            continue
        if (_log_norm2_t(_state(key)) > LOG_DBL_MAX) != (len(out)
                                                         < overflowing):
            continue
        taken.add(key)
        out.append(key)
    return out


def _wave_t():
    import numpy as np
    return np.linspace(*WAVE_SAMPLES)


def _profile_failures(s, t, got) -> list[str]:
    """Normalized t-profile samples against the log-space closed form."""
    import numpy as np
    from qkepler import radial
    got = np.asarray(got, dtype=float)
    bare = np.asarray(radial.radial_t(s, t), dtype=float)
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(bare)) - 0.5 * _log_norm2_t(s)
    want = np.sign(bare) * np.exp(logmag)
    scale = float(np.max(np.abs(want)))
    if np.all(np.isfinite(got)) and \
            float(np.max(np.abs(got - want))) <= PROFILE_TOL * scale:
        return []
    norm2 = radial.radial_norm2_t(s)
    if not math.isfinite(norm2) or norm2 <= 0.0:
        return ["radial.norm_overflow"]
    return ["radial.profile_mismatch"]


# ---------------------------------------------------------------------------
# gate and tables: commands in fresh processes


class CliWorkload:
    """One `qkepler` command per operation; in-process when traced."""

    subprocess = True

    def warm_up(self) -> None:
        pass  # every operation is a cold process

    def run(self, argv):
        return run_cli(argv)

    def run_inprocess(self, argv):
        return run_cli_inprocess(argv)

    @staticmethod
    def digest(out) -> str:
        return _digest(repr(out[0]).encode() + b"\0" + out[1])


class Gate(CliWorkload):
    """`qkepler verify all --format json --seed <seed>` in a fresh process."""

    name = "gate"

    def __init__(self, seed: int, rng) -> None:
        self.batch = [["verify", "all", "--format", "json",
                       "--seed", str(seed)]]
        self.kernel = Kernel(rng)

    def check(self, argv, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return ["gate.exit"]
        payload = json.loads(stdout)
        if not payload["passed"] or not all(r["passed"]
                                            for r in payload["results"]):
            return ["gate.row_failed"]
        return []


class Tables(CliWorkload):
    """One fresh process per table command, values checked exactly."""

    name = "tables"
    COMMANDS = ("spectrum", "degeneracy", "ktype", "wavefunction",
                "wavefunction-normalized")
    PER_COMMAND = 10

    def __init__(self, seed: int, rng) -> None:
        taken: set = set()
        batch = []
        for cmd in self.COMMANDS:
            if cmd.startswith("wavefunction"):
                batch += [self._wavefunction(cmd, key) for key in
                          draw_states(rng, self.PER_COMMAND, taken)]
            else:
                drawn: set = set()
                while len(drawn) < self.PER_COMMAND:
                    key = (rng.randint(2, 8), rng.randint(0, 12),
                           rng.randint(0, 20))
                    if key not in drawn:
                        drawn.add(key)
                        batch.append([cmd, "--n", str(key[0]),
                                      "--sigma", str(key[1]),
                                      "--format", "json",
                                      "--imax", str(key[2])])
        rng.shuffle(batch)
        self.batch = batch

    @staticmethod
    def _wavefunction(cmd, key):
        n, sb, k, l = key
        lo, hi, points = WAVE_SAMPLES
        argv = ["wavefunction", "--n", str(n), "--sigma", str(sb),
                "--format", "json", "--k", str(k), "--l", str(l),
                "--lo", repr(lo), "--hi", repr(hi), "--points", str(points)]
        if cmd.endswith("normalized"):
            argv.append("--normalized")
        return argv

    def check(self, argv, out) -> list[str]:
        from qkepler import spectral
        code, stdout = out
        if code != 0:
            return ["tables.exit"]
        rows = json.loads(stdout)["results"]
        opt = dict(zip(argv[1::2], argv[2::2]))
        p = spectral.ModelParams(int(opt["--n"]), int(opt["--sigma"]))
        if argv[0] == "wavefunction":
            return _check_wavefunction(p, int(opt["--k"]), int(opt["--l"]),
                                       "--normalized" in argv, rows)
        imax = int(opt["--imax"])
        want = []
        for I in range(imax + 1):
            if argv[0] == "spectrum":
                e = spectral.energy(p, I)
                want.append((f"E[I={I}]", str(e), float(e), True))
            elif argv[0] == "degeneracy":
                want.append((f"I={I}", spectral.degeneracy(p, I), None, True))
            else:
                w = spectral.ktype_weight(p, I).entries
                chk = spectral.ktype_dim_check(p, I)
                want.append((f"weight[I={I}]", w, None, True))
                want.append((f"dim[I={I}]", chk.u2n_dim, chk.sp_sum, True))
        got = []
        for r in rows:
            lhs = r["lhs"]
            if r["name"].startswith("weight["):
                lhs = tuple(Fraction(e) for e in lhs.strip("()").split(","))
            got.append((r["name"], lhs, r["rhs"], r["passed"]))
        return [] if got == want else ["tables.value_mismatch"]


def _check_wavefunction(p, k, l, normalized, rows) -> list[str]:
    from qkepler import radial
    s = radial.RadialState(p, k, l)
    t = _wave_t()
    xs = [r["lhs"] for r in rows]
    vals = [r["rhs"] for r in rows]
    if xs != [float(x) for x in t] or not all(r["passed"] for r in rows):
        return ["tables.value_mismatch"]
    if normalized:
        return _profile_failures(s, t, vals)
    if vals != [float(v) for v in radial.radial_t(s, t)]:
        return ["tables.value_mismatch"]
    return []


# ---------------------------------------------------------------------------
# kernel rows: exact identities at the sizes the exact layer should gate


class Kernel:
    """Rounds of exact identities: Weyl dimensions, Casimir, genfunc.

    The traced `gate` run times them once per round for the ROADMAP
    kernel rows; they are not part of any timed end-to-end loop.
    """

    name = "kernel"
    ROUNDS = 2

    def __init__(self, rng) -> None:
        self.batch = [self._draw(rng) for _ in range(self.ROUNDS)]

    @staticmethod
    def _draw(r):
        return {
            "weyl": [(n, r.randint(0, 12), r.randint(0, 40))
                     for n in WEYL_RANKS],
            "genfunc": [(r.randint(2, 8), K) for K in GENFUNC_K],
            "dim_equality": (r.randint(2, 8), r.randint(0, 80)),
            "ktype": (r.randint(2, 8), r.randint(0, 12), r.randint(0, 20)),
        }

    def run(self, case):
        from qkepler import rep, spectral
        ok = {}
        for n, sb, l in case["weyl"]:
            hw = rep.HighestWeight([l + sb, l] + [0] * (n - 2))
            C = rep.RootSystem("C", n)
            ok[f"weyl_dim[n={n}]"] = (rep.weyl_dim(C, hw)
                                      == rep.dim_R_l(n, sb, l))
            diff = rep.casimir(C, hw) - rep.casimir(
                rep.RootSystem("C", 1), rep.HighestWeight([sb]))
            ok[f"casimir[n={n}]"] = (Fraction(rep.angular_eigenvalue(n, sb, l))
                                     == 2 * diff)
        for n, K in case["genfunc"]:
            ok[f"genfunc[K={K}]"] = spectral.genfunc_check(n, K).passed
        n, k = case["dim_equality"]
        ok["dim_equality"] = spectral.dimension_equality_check(n, k).passed
        n, sb, I = case["ktype"]
        ok["ktype_dims"] = spectral.ktype_dim_check(
            spectral.ModelParams(n, sb), I).passed
        return ok

    def check(self, case, ok) -> list[str]:
        return [f"kernel.{key}" for key, good in ok.items() if not good]

    @staticmethod
    def digest(ok) -> str:
        return _digest(json.dumps(ok, sort_keys=True).encode())


# ---------------------------------------------------------------------------
# radial: eigensolver scale-up and closed-form states


class Radial:
    """One eigensolve case on four grids plus closed-form states.

    Every operation starts from empty package caches, so each state pays
    its quadrature norm as in a fresh `qkepler` process.
    """

    name = "radial"
    subprocess = False
    OPS = 60
    STATES_PER_OP = 4

    def __init__(self, seed: int, rng) -> None:
        states = draw_states(rng, self.OPS * self.STATES_PER_OP, set())
        # each known failure in a round of its own, so 15 rounds fail
        over = round(len(states) * OVERFLOW_SHARE)
        slots = rng.sample(range(self.OPS), over + 1)
        ops = [[] for _ in range(self.OPS)]
        for slot, key in zip(slots, states[:over]):
            ops[slot].append(key)
        rest = states[over:]
        rng.shuffle(rest)
        for op in ops:
            while len(op) < self.STATES_PER_OP:
                op.append(rest.pop())
        eigen = []
        while len(eigen) < self.OPS - 1:
            case = (rng.randint(2, 8), rng.randint(0, 12), rng.randint(0, 40))
            if case != EIGEN_MISS:
                eigen.append(case)
        eigen.insert(slots[-1], EIGEN_MISS)
        self.batch = [{"eigen": e, "states": op} for e, op in zip(eigen, ops)]

    def warm_up(self) -> None:
        import numpy as np
        from qkepler import radial, spectral
        p = spectral.ModelParams(2, 0)
        radial.eigensolve(p, 0, grid_size=1000)
        s = radial.RadialState(p, 1, 0)
        radial.kepler_residual(s, radial.RadialGrid.uniform(0.1, 1.0, 50, 4))
        radial.radial_t(s, np.linspace(0.2, 1.0, 3))

    def run(self, case):
        from qkepler import radial, spectral
        n, sb, l = case["eigen"]
        p = spectral.ModelParams(n, sb)
        eig = {}
        for g in EIGEN_GRIDS:
            try:
                eig[g] = [float(v) for v in
                          radial.eigensolve(p, l, grid_size=g, count=3)]
            except ValueError as exc:
                eig[g] = str(exc)
        t = _wave_t()
        states = []
        for n2, sb2, k, l2 in case["states"]:
            s = radial.RadialState(spectral.ModelParams(n2, sb2), k, l2)
            # the grids of `qkepler residual kepler|oscillator`
            rk = radial.kepler_residual(
                s, radial.RadialGrid.uniform(0.1, 40.0, 400, 2 * n2))
            ro = radial.oscillator_residual(
                s, radial.RadialGrid.uniform(0.1, 6.0, 300, 4 * n2 - 1))
            prof = radial.radial_t(s, t, normalized=True)
            states.append((rk, ro, prof))
        return eig, states

    def check(self, case, out) -> list[str]:
        from qkepler import spectral
        eig, states = out
        fails = []
        n, sb, l = case["eigen"]
        p = spectral.ModelParams(n, sb)
        for g, vals in eig.items():
            if isinstance(vals, str):
                fails.append("radial.eigensolve_raised")
                continue
            exact = [float(spectral.energy(p, i + l)) for i in range(3)]
            if len(vals) != 3 or not all(math.isfinite(v) for v in vals):
                fails.append("radial.eigensolve_bad_output")
            elif max(abs(v - e) / abs(e) for v, e in zip(vals, exact)) \
                    >= EIGEN_TOL:
                fails.append(f"radial.eigensolve_tolerance.{grid_label(g)}")
        t = _wave_t()
        for key, (rk, ro, prof) in zip(case["states"], states):
            if not rk < RESIDUAL_TOL:
                fails.append("radial.kepler_residual")
            if not ro < RESIDUAL_TOL:
                fails.append("radial.oscillator_residual")
            fails += _profile_failures(_state(key), t, prof)
        return fails

    @staticmethod
    def digest(out) -> str:
        eig, states = out
        parts = [repr(sorted(eig.items()))]
        for rk, ro, prof in states:
            parts.append(repr((rk, ro)) + prof.tobytes().hex())
        return _digest("\n".join(parts).encode())


WORKLOADS = {cls.name: cls for cls in (Gate, Tables, Radial)}
