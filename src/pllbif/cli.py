"""Command-line front end: sweeps, scans, simulation, verification.

Each command declares its options once, in a table of ``_Opt`` entries (flag,
parser, default, help).  The table builds the command's argparse subparser,
whose ``--help`` shows every default; it names the keys ``--config`` accepts;
and it turns the merged values into the typed options the command reads.

Every command but ``verify`` writes CSV (``--out PATH``, default stdout) whose
``#`` comment lines record the resolved, normalized parameters; floats
serialize with 17 significant digits so files round-trip exactly.  ``--svg
PATH`` adds a small self-contained line chart (not for ``phasediff-check``).

``--config FILE`` supplies defaults from a JSON object keyed by the flag
names without their dashes (``"K"``, ``"tau-window"``; an underscore may stand
for a dash); explicit flags win, and a key that names no option of the
command is a usage error.  A default applies only to an option that neither
a flag nor the config set; a value that is set but out of range is a usage
error, never replaced by the default.  Numbers from flags and from the
config pass the same checks and must be finite.  Flags are never
abbreviated.

The library works in time normalized by the free-running frequency omega_m;
here rates and frequencies (``--K``, ``--mu``, their grids, ``--omega-hat``)
are divided by it and delays, times and steps multiplied, so configurations
that differ only by omega_m write identical output (its metadata: omega_m = 1).

Exit codes: 0 success, 1 domain error (no equilibrium, no convergence, ...),
2 usage or I/O error, a parameter outside its domain included (an
InvalidParamError, such as a delay window whose grids would pass the 2^27
float budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .charfun import BlockKind, block_product, build_blocks, p_dp
from .errors import IndexOutOfRangeError, InvalidParamError, NotPeriodicError, PllbifError
from .model import _MAX_FLOATS, Branch, ModelKind, NetworkParams, equilibrium
from .phasediff import determinant_n3, fictitious_roots
from .phasemodel import _RESOLUTION, releq_branches, releq_solve, relative_hopf_scan, zero_root_taus
from .simulator import (
    HistorySpec,
    equilibrium_state,
    integrate,
    isotypic_direction,
    pair_difference_direction,
    period_estimate,
    symmetry_classify,
    sync_direction,
)
from .snmap import bifurcation_curves, sn_scan
from .spectrum import rightmost_sweep
from .svg import Series, line_chart

__all__ = ["main"]


class _UsageError(Exception):
    pass


_MODEL = {
    "full-phase": ModelKind.FULL_PHASE,
    "phase": ModelKind.PHASE,
    "phase-rotating-frame": ModelKind.PHASE_ROTATING_FRAME,
    "phase-difference": ModelKind.PHASE_DIFFERENCE,
}
_BLOCK = {"fix": BlockKind.FIX, "standard": BlockKind.STANDARD}
_EQ = {"plus": Branch.PLUS, "minus": Branch.MINUS}
_BLOCKS = {"fix": ("fix",), "standard": ("standard",), "both": ("fix", "standard")}
_YES = {"yes": True, "no": False}


# ---------------------------------------------------------------------------
# value parsers: f(value, flag); flags arrive as strings, config values as JSON


def _num(val, flag: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise _UsageError(f"{flag} expects a number, got {val!r}")
    try:
        v = float(val)
    except (ValueError, OverflowError) as exc:
        raise _UsageError(f"{flag} expects a number, got {val!r}") from exc
    if not math.isfinite(v):
        raise _UsageError(f"{flag} must be finite, got {val!r}")
    return v


def _int(least: int | None = None):
    def parse(val, flag: str) -> int:
        v = _num(val, flag)
        if not v.is_integer():
            raise _UsageError(f"{flag} expects an integer, got {val!r}")
        if least is not None and v < least:
            raise _UsageError(f"{flag} must be >= {least}, got {int(v)}")
        return int(v)

    return parse


def _budget(count, flag: str):
    # the float budget of one integration bounds every grid and sample count
    if count > _MAX_FLOATS:
        raise _UsageError(f"{flag} asks for {count:.6g} points, more than the budget of 2^27")
    return count


def _count(least: int):
    return lambda val, flag: _budget(_int(least)(val, flag), flag)


def _positive(val, flag: str) -> float:
    v = _num(val, flag)
    if not v > 0.0:
        raise _UsageError(f"{flag} must be finite and > 0, got {val!r}")
    return v


def _fraction(val, flag: str) -> float:
    v = _num(val, flag)
    if not 0.0 <= v < 1.0:
        raise _UsageError(f"{flag} must lie in [0, 1), got {v:g}")
    return v


def _text(val, flag: str) -> str:
    return str(val)  # a config number must not name a file descriptor


def _ends(a: float, b: float, text, flag: str) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _UsageError(f"{flag} needs finite ends, got {text!r}")


def _grid(text, flag: str) -> np.ndarray:
    try:
        a, b, count = str(text).split(":")
        a, b, count = float(a), float(b), int(count)
    except ValueError as exc:
        raise _UsageError(f"{flag} expects start:stop:count, got {text!r}") from exc
    _ends(a, b, text, flag)
    if count < 2 or not b > a:
        raise _UsageError(f"{flag} needs at least 2 points and positive extent")
    return np.linspace(a, b, _budget(count, flag))


def _delay_grid(text, flag: str) -> np.ndarray:
    taus = _grid(text, flag)
    if taus[0] < 0.0:
        raise _UsageError(f"{flag} must start at a delay >= 0, got {taus[0]:g}")
    return taus


def _delay_window(text, flag: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in str(text).split(":"))
    except ValueError as exc:
        raise _UsageError(f"{flag} expects start:stop, got {text!r}") from exc
    _ends(a, b, text, flag)
    if not b > a:
        raise _UsageError(f"{flag} needs positive extent")
    if a < 0.0:
        raise _UsageError(f"{flag} must start at a delay >= 0, got {a:g}")
    return a + 0.0, b  # a start of -0 becomes +0


def _irange(text, flag: str) -> range:
    try:
        a, _, b = str(text).partition(":")
        r = range(int(a), int(b or a) + 1)
    except ValueError as exc:
        raise _UsageError(f"{flag} expects n or lo:hi, got {text!r}") from exc
    if not r:
        raise _UsageError(f"{flag} needs lo <= hi, got {text!r}")
    _budget(r.stop - r.start, flag)  # len(r) overflows past sys.maxsize
    return r


def _ints(text, flag: str) -> list[int]:
    try:
        return [int(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc


_REQUIRED = object()


class _Opt(NamedTuple):
    """One option of one command.

    ``parse`` is a choice table or a value parser.  ``default`` is a raw
    value that goes through ``parse`` like a flag's, ``None`` (left unset) or
    ``_REQUIRED``.  The dest is the flag without dashes (``--tau-window`` ->
    ``tau_window``).
    """

    flag: str
    parse: object
    default: object = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def value(self, raw):
        if raw is None:
            if self.default is _REQUIRED:
                raise _UsageError(f"{self.flag} is required for this command")
            raw = self.default
            if raw is None:
                return None
        if not isinstance(self.parse, dict):
            return self.parse(raw, self.flag)
        try:
            return self.parse[raw]
        except (KeyError, TypeError):
            raise _UsageError(f"{self.flag} must be one of {', '.join(self.parse)}, got {raw!r}") from None


# ---------------------------------------------------------------------------
# shared pieces of the commands


def _network(o: argparse.Namespace, tau: float = 0.0) -> NetworkParams:
    """The network of the parsed options, in time normalized by ``--omega-m``."""
    return NetworkParams(o.nodes, o.K / o.omega_m, o.mu / o.omega_m, delay=tau * o.omega_m)


def _meta(p: NetworkParams, command: str, *extra: tuple) -> list[tuple]:
    return [
        ("n_nodes", p.n_nodes),
        ("K", p.coupling),
        ("mu", p.filter_gain),
        ("omega_m", 1.0),
        ("tau", p.delay),
        ("command", command),
        *extra,
    ]


def _spec(kind: type) -> str:
    """The %-format of a value of type ``kind``: bools and ints as integers, floats to 17 digits."""
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%s"


def _fmt(v) -> str:
    return _spec(type(v)) % (v,)


def _emit(o: argparse.Namespace, meta: list[tuple], header: list[str], rows, summary: str, chart=None) -> None:
    """Write the SVG chart ``(series, title, xlabel, ylabel)`` if --svg is set, then the CSV.

    Each row is written by one %-format, built once per tuple of value types
    from ``_spec``, the rule ``_fmt`` applies to one value.
    """
    if chart is not None and o.svg is not None:
        series, title, xlabel, ylabel = chart
        with open(o.svg, "w", encoding="utf-8") as fh:
            fh.write(line_chart(series, title=title, xlabel=xlabel, ylabel=ylabel))
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta]
    lines.append(",".join(header))
    formats: dict[tuple, str] = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(map(_spec, kinds))
        lines.append(fmt % row)
    text = "\n".join(lines) + "\n"
    if o.out == "-":
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    else:
        with open(o.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(summary)


# ---------------------------------------------------------------------------
# commands: each reads the typed options of its table


def _cmd_curves(o: argparse.Namespace) -> int:
    if (o.mu_grid is None) == (o.k_grid is None):
        raise _UsageError("give exactly one of --mu-grid or --k-grid")
    # the grid sets the swept parameter (its first value goes to the metadata)
    sweep, fixed = ("mu", "K") if o.mu_grid is not None else ("K", "mu")
    grid = o.mu_grid if sweep == "mu" else o.k_grid
    if getattr(o, sweep) is not None:
        raise _UsageError(f"--{sweep} conflicts with --{sweep.lower()}-grid")
    if getattr(o, fixed) is None:
        raise _UsageError(f"--{fixed} is required for this command")
    setattr(o, sweep, float(grid[0]))
    p = _network(o)
    values = grid / o.omega_m
    tau_max = o.tau_max * o.omega_m if o.tau_max is not None else None
    rows = bifurcation_curves(p, o.block, o.eq, sweep, values, o.n, tau_max)
    series: dict[tuple, Series] = {}
    for r in rows:
        label = f"{r.root_branch.value} n={r.winding}"
        s = series.setdefault((r.root_branch.value, r.winding), Series([], [], label=label))
        s.xs.append(r.sweep_value)
        s.ys.append(r.tau_star)
    _emit(
        o,
        _meta(p, "curves", ("sweep", sweep), ("block", o.block.value), ("eq", o.eq.value)),
        ["value", "n", "root", "omega", "tau", "delta_sign"],
        [[r.sweep_value, r.winding, r.root_branch.value, r.omega, r.tau_star, r.delta_sign] for r in rows],
        f"curves: {len(rows)} crossings over {len(values)} {sweep} values",
        (list(series.values()), "crossing delays", sweep, "tau"),
    )
    return 0


def _cmd_rightmost(o: argparse.Namespace) -> int:
    taus = o.tau_grid * o.omega_m
    p = _network(o)
    blocks = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, o.eq))
    sweeps = {name: rightmost_sweep(getattr(blocks, name), taus) for name in o.block}
    rows = []
    for i, tau in enumerate(taus):
        per = {name: sw[i] for name, sw in sweeps.items()}
        name = max(per, key=lambda nm: per[nm].lam.real)
        r = per[name]
        certified = all(x.certified for x in per.values())
        rows.append([tau, r.lam.real, r.lam.imag, name, r.residual, certified])
    block = "both" if len(o.block) > 1 else o.block[0]
    worst = max(r[1] for r in rows)
    _emit(
        o,
        _meta(p, "rightmost", ("eq", o.eq.value), ("block", block)),
        ["tau", "re_lambda", "im_lambda", "block", "residual", "certified"],
        rows,
        f"rightmost: max Re lambda = {worst:.6g}, certified {sum(1 for r in rows if r[5])}/{len(rows)}",
        ([Series([r[0] for r in rows], [r[1] for r in rows], label="Re lambda")],
         "rightmost root", "tau", "Re lambda"),
    )
    return 0


def _cmd_snmap(o: argparse.Namespace) -> int:
    wm = o.omega_m
    lo, hi = o.tau_window[0] * wm, o.tau_window[1] * wm
    p = _network(o)
    if o.model is ModelKind.FULL_PHASE:
        blocks = build_blocks(o.model, p, equilibrium(p, o.eq))
        blk = blocks.fix if o.block is BlockKind.FIX else blocks.standard
        crossings = sn_scan(blk, (lo, hi))
        ids, meta = None, _meta(p, "snmap", ("block", o.block.value), ("eq", o.eq.value))
    else:
        scan = relative_hopf_scan(p, o.block, (lo, hi))
        crossings = [pc.crossing for pc in scan]
        ids, meta = [pc.branch_id for pc in scan], _meta(p, "snmap", ("block", o.block.value))
    header = ["tau", "omega", "root", "n", "delta", "delta_sign"]
    rows = [
        [c.tau_star, c.omega, c.omega_candidate.root_branch.value, c.winding, c.delta, c.delta_sign]
        for c in crossings
    ]
    series = Series([r[0] for r in rows], [r[1] for r in rows], label="crossings", markers=True)
    if ids is not None:  # phase-model crossings name their locked branch
        header = ["branch_id", *header]
        rows = [[i, *row] for i, row in zip(ids, rows)]
    _emit(
        o, meta, header, rows, f"snmap: {len(rows)} crossings in [{lo:g}, {hi:g}]",
        ([series], "imaginary-axis crossings", "tau", "omega"),
    )
    return 0


def _cmd_releq(o: argparse.Namespace) -> int:
    lo, hi = o.tau_window[0] * o.omega_m, o.tau_window[1] * o.omega_m
    # the locked branches depend on K alone; 2 nodes and mu = 1 fill the metadata
    p = NetworkParams(2, o.K / o.omega_m, 1.0)
    branches = releq_branches(p, (lo, hi))
    rows = [[br.branch_id, br.birth_tau, t, oh] for br in branches for t, oh in zip(br.taus, br.omegas)]
    series = [Series(list(br.taus), list(br.omegas), label=f"branch {br.branch_id}") for br in branches]
    _emit(
        o,
        _meta(p, "releq", ("resolution", _RESOLUTION)),
        ["branch_id", "birth_tau", "tau", "omega_hat"],
        rows,
        f"releq: {len(branches)} branches on [{lo:g}, {hi:g}]",
        (series, "locked frequencies", "tau", "Omega_hat"),
    )
    return 0


def _cmd_zero_roots(o: argparse.Namespace) -> int:
    p = _network(o)
    events = zero_root_taus(p, o.n)
    rows = [[ev.tau_star, ev.n, ev.delta0, ev.omega_hat] for ev in events]
    first = f"{events[0].tau_star:.6g}" if events else "none"
    _emit(
        o,
        _meta(p, "zero-roots"),
        ["tau", "n", "delta0", "omega_hat"],
        rows,
        f"zero-roots: {len(rows)} events, first at tau = {first}",
        ([Series([r[0] for r in rows], [r[2] for r in rows], label="delta0", markers=True)],
         "steady-state events", "tau", "delta0"),
    )
    return 0


def _mismatch(got, want, z: complex, tau: float) -> float:
    """|got(z) - want(z)| relative to the size of want's terms at z.

    The scale 1 + |z|^2 + mu |z| + |r0| + |s0 e^{-z tau}| keeps the rounding
    of the coefficients, which |e^{-z tau}| amplifies, from reading as a
    mismatch.
    """
    r0, r1, s0 = want.at(tau)
    value, _, delayed = p_dp(r0, r1, s0, tau, complex(z))
    scale = 1.0 + abs(z) ** 2 + r1 * abs(z) + abs(r0) + abs(delayed)
    return abs(got.eval(z, tau) - value) / scale


def _cmd_phasediff_check(o: argparse.Namespace) -> int:
    p = _network(o, o.tau)
    if p.delay <= 0.0:
        raise _UsageError("--tau > 0 is required (the difference coordinates need a delay)")
    locked = releq_solve(p, p.delay)
    if not 0 <= o.omega_index < len(locked):
        raise _UsageError(f"--omega-index {o.omega_index} outside 0..{len(locked) - 1}")
    omega_hat = locked[o.omega_index]
    c_const = o.c_const if o.c_const is not None else (omega_hat - 1.0) * p.delay
    rng = np.random.default_rng(o.seed)
    lam = rng.uniform(-1.5, 1.5, o.samples) + 1j * rng.uniform(-2.0, 2.0, o.samples)

    # the worst error is an np.max, which, unlike max(), never drops a NaN
    if p.n_nodes == 2:
        diff = build_blocks(ModelKind.PHASE_DIFFERENCE, p, c_const)
        blocks = build_blocks(ModelKind.PHASE, p, omega_hat)
        rows = [
            [z.real, z.imag, _mismatch(diff.fix, blocks.fix, z, p.delay),
             _mismatch(diff.standard, blocks.standard, z, p.delay)]
            for z in lam
        ]
        worst = float(np.max([r[2:] for r in rows]))
        ok = worst < 1e-12
        header = ["lam_re", "lam_im", "rel_err_p1", "rel_err_p2"]
        tail = f"max relative block mismatch {worst:.3g} ({'PASS' if ok else 'FAIL'} at 1e-12)"
    elif p.n_nodes == 3:
        rows = []
        for z in lam:
            det = determinant_n3(p, c_const, z)
            prod = block_product(ModelKind.PHASE_DIFFERENCE, p, c_const, z)
            if abs(det) < 1e-8 and abs(prod) < 1e-8:  # too close to a root for a relative comparison
                continue
            rows.append([z.real, z.imag, abs(det), abs(det - prod) / max(abs(det), abs(prod))])
        worst = float(np.max([r[3] for r in rows])) if rows else 0.0
        flags = ", ".join(
            f"lam={fr.lam:g} {'fictitious' if fr.is_fictitious else 'shared with a block'}"
            for fr in fictitious_roots(p, c_const)
        )
        ok = worst < 1e-10 and len(rows) > 0
        header = ["lam_re", "lam_im", "abs_det", "rel_err"]
        tail = f"max factorization error {worst:.3g} over {len(rows)} samples ({'PASS' if ok else 'FAIL'} at 1e-10); {flags}"
    else:
        raise _UsageError("phasediff-check needs --nodes 2 or 3")
    meta = _meta(p, "phasediff-check", ("c_const", c_const), ("omega_hat", omega_hat), ("seed", o.seed))
    _emit(o, meta, header, rows, f"phasediff-check: {tail}")
    return 0 if ok else 1


def _cmd_simulate(o: argparse.Namespace) -> int:
    kind, wm = o.model, o.omega_m
    p = _network(o, o.tau)
    t_end = o.t_end * wm
    omega = None

    if kind is ModelKind.FULL_PHASE:
        base = equilibrium_state(kind, p, equilibrium(p, o.eq))
    elif kind is ModelKind.PHASE:
        base = np.zeros(2 * p.n_nodes)
    elif kind is ModelKind.PHASE_ROTATING_FRAME:
        oh = o.omega_hat / wm if o.omega_hat is not None else releq_solve(p, p.delay)[0]
        omega = oh - 1.0
        base = equilibrium_state(kind, p, None)
    else:
        if p.n_nodes > 3:
            raise _UsageError("simulate --model phase-difference needs --nodes 2 or 3")
        c_const = o.c_const
        if c_const is None:
            c_const = (releq_solve(p, p.delay)[0] - 1.0) * p.delay
        base = equilibrium_state(kind, p, c_const)

    spec_kind = o.perturb
    if spec_kind == "none":
        history = HistorySpec.constant(base)
    else:
        # parse even at amplitude 0 so a mistyped spec never passes silently
        if kind is ModelKind.PHASE_DIFFERENCE:
            raise _UsageError("node perturbations do not apply to the difference model")
        try:  # a node pair or component the network lacks is bad input too
            if spec_kind == "sync":
                direction = sync_direction(p.n_nodes)
            elif spec_kind.startswith("pair:"):
                try:
                    i, j = (int(v) for v in spec_kind[5:].split(","))
                except ValueError as exc:
                    raise _UsageError("--perturb pair:i,j with 1-based node labels") from exc
                direction = pair_difference_direction(p.n_nodes, (i, j))
            elif spec_kind.startswith("isotypic:"):
                m = re.fullmatch(r"isotypic:(-?\d+)(?::(real|imag))?", spec_kind)
                if m is None:
                    raise _UsageError("--perturb isotypic:j[:imag] needs an integer j")
                direction = isotypic_direction(p.n_nodes, int(m[1]), m[2] or "real")
            else:
                raise _UsageError(f"unknown --perturb {spec_kind!r}")
        except (InvalidParamError, IndexOutOfRangeError) as err:
            raise _UsageError(f"--perturb {spec_kind}: {err}") from err
        history = HistorySpec.perturbed(base, direction, o.amplitude)

    if o.step is not None:
        step = o.step * wm
    elif p.delay > 0.0:
        step = p.delay / 100.0
    else:
        raise _UsageError("--step is required when tau = 0")

    traj = integrate(kind, p, history, t_end, step, omega=omega)
    half = traj.states.shape[1] // 2
    header = ["t", *(f"x{k}_{i}" for i in range(1, half + 1) for k in (1, 2))]
    rows = [[t, *row] for t, row in zip(traj.times, traj.states)]
    meta = _meta(p, "simulate", ("model", kind.value), ("step", traj.step), ("t_end", t_end),
                 ("perturb", spec_kind), ("amplitude", o.amplitude))

    if o.classify:
        try:
            period = period_estimate(traj, o.transient)
            if kind is ModelKind.PHASE_DIFFERENCE:
                summary = f"simulate: period {period:.6g} (difference model: no symmetry classification)"
            else:
                cls = symmetry_classify(traj, period, o.tol)
                pair = f"{cls.pair}" if cls.pair else ""
                summary = (
                    f"simulate: period {period:.6g}, {cls.tag.value}{pair}, "
                    f"residual {cls.residual:.3g}"
                )
        except NotPeriodicError as err:
            summary = f"simulate: not periodic ({err})"
    else:
        summary = f"simulate: {len(traj.times) - 1} steps to t = {traj.times[-1]:.6g}"

    stride = max(1, len(traj.times) // 1500)
    series = [
        Series(list(traj.times[::stride]), list(traj.states[::stride, 2 * i]), label=f"x1_{i + 1}")
        for i in range(half)
    ]
    _emit(o, meta, header, rows, summary, (series, "trajectory", "t", "position"))
    return 0


def _cmd_verify(o: argparse.Namespace) -> int:
    from .acceptance import _CRITERIA, run_all

    if o.only is not None:
        unknown = sorted(set(o.only) - {index for index, _, _ in _CRITERIA})
        if unknown:
            raise _UsageError(f"--only names no criterion {', '.join(map(str, unknown))}")
    results = run_all(o.only)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# option tables: the one declaration of every option


_NODES = _Opt("--nodes", _int(2), 2, "number of loops N")
_K = _Opt("--K", _positive, _REQUIRED, "coupling gain")
_MU = _Opt("--mu", _positive, _REQUIRED, "loop-filter rate")
_OMEGA_M = _Opt("--omega-m", _positive, 1.0, "free-running frequency")
_TAU = _Opt("--tau", _num, 0.0, "transmission delay")
_CSV = _Opt("--out", _text, "-", "CSV output path; '-' is stdout")
_OUT = (_CSV, _Opt("--svg", _text, None, "also write an SVG chart here"))
_TAU_WINDOW = _Opt("--tau-window", _delay_window, _REQUIRED, "delay window start:stop")
_C_CONST = _Opt("--c-const", _num, None, "difference-model constant (default: from the locked state)")

_COMMANDS = {
    "curves": (_cmd_curves, "crossing-delay curves over a mu or K sweep", (
        _NODES,
        _K._replace(default=None, help="coupling gain; required with --mu-grid"),
        _MU._replace(default=None, help="loop-filter rate; required with --k-grid"),
        _OMEGA_M,
        _Opt("--block", _BLOCK, "fix", "characteristic block"),
        _Opt("--eq", _EQ, "minus", "equilibrium branch"),
        _Opt("--mu-grid", _grid, None, "mu sweep start:stop:count"),
        _Opt("--k-grid", _grid, None, "K sweep start:stop:count"),
        _Opt("--n", _irange, "0:4", "crossing index range lo:hi"),
        _Opt("--tau-max", _positive, None, "drop crossings at larger delays"),
        *_OUT,
    )),
    "rightmost": (_cmd_rightmost, "rightmost characteristic root along a delay grid", (
        _NODES, _K, _MU, _OMEGA_M,
        _Opt("--eq", _EQ, "plus", "equilibrium branch"),
        _Opt("--block", _BLOCKS, "both", "characteristic block"),
        _Opt("--tau-grid", _delay_grid, _REQUIRED, "delay grid start:stop:count"),
        *_OUT,
    )),
    "snmap": (_cmd_snmap, "imaginary-axis crossings over a delay window", (
        _NODES, _K, _MU, _OMEGA_M,
        _Opt("--model", {k: _MODEL[k] for k in ("full-phase", "phase")}, "full-phase", "model"),
        _Opt("--block", _BLOCK, "fix", "characteristic block"),
        _Opt("--eq", _EQ, "minus", "equilibrium branch (full-phase model)"),
        _TAU_WINDOW,
        *_OUT,
    )),
    "releq": (_cmd_releq, "locked-frequency branches over a delay window", (
        _K, _OMEGA_M, _TAU_WINDOW,
        *_OUT,
    )),
    "zero-roots": (_cmd_zero_roots, "steady-state bifurcation delays of the phase model", (
        _NODES, _K, _MU._replace(default=1.0), _OMEGA_M,
        _Opt("--n", _irange, "0:6", "event index range lo:hi"),
        *_OUT,
    )),
    "phasediff-check": (_cmd_phasediff_check, "difference-model consistency checks", (
        _NODES, _K, _MU, _OMEGA_M, _TAU,
        _Opt("--seed", _int(0), 0, "seed of the sampled lambda values"),
        _Opt("--samples", _count(1), 300, "number of sampled lambda values"),
        _Opt("--omega-index", _int(), 0, "which locked frequency, in ascending order"),
        _C_CONST, _CSV,
    )),
    "simulate": (_cmd_simulate, "integrate a model and classify the orbit", (
        _NODES, _K, _MU, _OMEGA_M, _TAU,
        _Opt("--model", _MODEL, "full-phase", "model"),
        _Opt("--eq", _EQ, "minus", "equilibrium branch (full-phase model)"),
        _Opt("--perturb", _text, "none", "history perturbation: none | sync | pair:i,j | isotypic:j[:imag]"),
        _Opt("--amplitude", _num, 0.0, "perturbation amplitude"),
        _Opt("--t-end", _positive, _REQUIRED, "integration time"),
        _Opt("--step", _positive, None,
             "integration step; with tau > 0 the run uses tau / m for the smallest "
             "integer m >= 1 that keeps it at most this (default: tau / 100)"),
        _Opt("--transient", _fraction, 0.6, "fraction discarded before classifying"),
        _Opt("--classify", _YES, "yes", "estimate the period and classify the symmetry"),
        _Opt("--tol", _positive, 1e-2, "symmetry residual tolerance"),
        _Opt("--omega-hat", _num, None, "locked frequency of the rotating frame, divided by "
             "--omega-m like --K (default: first locked frequency)"),
        _C_CONST,
        *_OUT,
    )),
    "verify": (_cmd_verify, "run the acceptance suite", (
        _Opt("--only", _ints, None, "comma-separated criterion numbers (default: all)"),
    )),
}


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a parse error (unknown flag, missing value) as one line, exit 2.

    Options carry no argparse ``type`` or ``choices``: their table entries
    check them, for flags and config values alike.
    """

    def error(self, message: str):
        self.exit(2, f"usage error: {message}\n")


def _help(opt: _Opt) -> str:
    if opt.default is _REQUIRED:
        return f"{opt.help} (required)"
    return opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    ap = _Parser(
        prog="pllbif",
        description="Bifurcation analysis of delay-coupled oscillator networks",
    )
    sub = ap.add_subparsers(dest="command")
    for name, (func, text, table) in _COMMANDS.items():
        # no abbreviations: a dropped --tau must not pass as --tau-grid
        sp = sub.add_parser(name, help=text, description=text, allow_abbrev=False)
        sp.add_argument("--config", help="JSON object of option defaults keyed by flag name; flags win")
        for opt in table:
            metavar = "{" + ",".join(opt.parse) + "}" if isinstance(opt.parse, dict) else None
            sp.add_argument(opt.flag, dest=opt.dest, metavar=metavar, help=_help(opt))
        sp.set_defaults(func=func, table=table)
    return ap


def _options(args: argparse.Namespace) -> argparse.Namespace:
    """The command's typed options: flags, then config values, then defaults."""
    raw = {opt.flag: getattr(args, opt.dest) for opt in args.table}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise _UsageError("--config must hold a JSON object")
        for key, val in cfg.items():
            flag = "--" + key.replace("_", "-")
            if flag not in raw:
                raise _UsageError(f"--config key {key!r} is not an option of {args.command}")
            if raw[flag] is None:
                raw[flag] = val
    return argparse.Namespace(**{opt.dest: opt.value(raw[opt.flag]) for opt in args.table})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles -h and usage failures
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(_options(args))
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except InvalidParamError as err:  # a parameter outside its domain, or past the budget
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except PllbifError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
