"""Command-line front end: sweeps, scans, simulation, verification.

Every command writes CSV (``--out PATH``, default stdout) whose ``#`` comment
lines record the resolved, normalized parameters; floats serialize with 17
significant digits so files round-trip exactly.  ``--svg PATH`` adds a small
self-contained line chart.  ``--config FILE`` supplies defaults from a JSON
object keyed by the long flag names; explicit flags win, and a key that names
no option of the command is a usage error.  A default applies only to an
option that neither a flag nor the config set; a value that is set but out of
range is a usage error, never replaced by the default.  Numbers from flags
and from the config pass the same checks.

Delays, times, and steps given on the command line are in the caller's time
units and are rescaled by omega_m at this boundary, so configurations that
differ only by the free-running frequency produce identical output.

Exit codes: 0 success, 1 domain error (no equilibrium, no convergence, ...),
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .charfun import BlockKind, build_blocks
from .errors import InvalidParamError, PllbifError
from .model import Branch, ModelKind, NetworkParams, equilibrium, normalize
from .phasediff import block_product, char_functions_n2, determinant_n3, fictitious_roots
from .phasemodel import releq_branches, releq_solve, relative_hopf_scan, zero_root_taus
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
from .spectrum import Scheme, rightmost_sweep
from .svg import Series, line_chart
from .errors import NotPeriodicError

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
_SCHEME = {"newton": Scheme.NEWTON, "halley": Scheme.HALLEY}
_YES = {"yes": True, "no": False}


# ---------------------------------------------------------------------------
# small parsing helpers


def _grid(text: str, flag: str) -> np.ndarray:
    try:
        a, b, count = str(text).split(":")
        a, b, count = float(a), float(b), int(count)
    except ValueError as exc:
        raise _UsageError(f"{flag} expects start:stop:count, got {text!r}") from exc
    if count < 2 or not b > a:
        raise _UsageError(f"{flag} needs at least 2 points and positive extent")
    return np.linspace(a, b, count)


def _window(text: str, flag: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in str(text).split(":"))
    except ValueError as exc:
        raise _UsageError(f"{flag} expects start:stop, got {text!r}") from exc
    if not b > a:
        raise _UsageError(f"{flag} needs positive extent")
    return a, b


def _irange(text: str, flag: str) -> range:
    text = str(text)
    try:
        if ":" in text:
            a, b = (int(v) for v in text.split(":"))
            return range(a, b + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError as exc:
        raise _UsageError(f"{flag} expects n or lo:hi, got {text!r}") from exc


def _opt(opts: dict, key: str, default=None):
    """The option's value, or ``default`` when neither a flag nor the config set it."""
    val = opts.get(key)
    return default if val is None else val


def _require(opts: dict, key: str, flag: str):
    val = opts.get(key)
    if val is None:
        raise _UsageError(f"{flag} is required for this command")
    return val


def _choice(opts: dict, key: str, table: dict, default: str, flag: str):
    val = _opt(opts, key, default)
    try:
        return table[val]
    except (KeyError, TypeError):
        raise _UsageError(f"{flag} must be one of {', '.join(table)}, got {val!r}") from None


def _num(val, flag: str) -> float:
    # the one numeric check: flags arrive as strings, config values as JSON
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise _UsageError(f"{flag} expects a number, got {val!r}")
    try:
        return float(val)
    except ValueError as exc:
        raise _UsageError(f"{flag} expects a number, got {val!r}") from exc


def _int(val, flag: str, least: int | None = None) -> int:
    v = _num(val, flag)
    if not v.is_integer():
        raise _UsageError(f"{flag} expects an integer, got {val!r}")
    if least is not None and v < least:
        raise _UsageError(f"{flag} must be >= {least}, got {int(v)}")
    return int(v)


def _positive(val, flag: str) -> float:
    v = _num(val, flag)
    if not (math.isfinite(v) and v > 0.0):
        raise _UsageError(f"{flag} must be finite and > 0, got {val!r}")
    return v


def _omega_m(opts: dict) -> float:
    return _positive(_opt(opts, "omega_m", 1.0), "--omega-m")


def _resolution(opts: dict) -> int:
    return _int(_opt(opts, "resolution", 2000), "--resolution", least=2)


def _mkparams(opts: dict, mu_default: float | None = None) -> NetworkParams:
    k = _num(_require(opts, "coupling", "--K"), "--K")
    mu = _opt(opts, "mu", mu_default)
    if mu is None:
        raise _UsageError("--mu is required for this command")
    try:
        return NetworkParams(
            n_nodes=_int(_opt(opts, "nodes", 2), "--nodes", least=2),
            coupling=k,
            filter_gain=_num(mu, "--mu"),
            free_freq=_omega_m(opts),
            delay=_num(_opt(opts, "tau", 0.0), "--tau"),
        )
    except InvalidParamError as err:
        raise _UsageError(str(err)) from err


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _emit(opts: dict, meta: list[tuple], header: list[str], rows, summary: str) -> None:
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    out = str(_opt(opts, "out", "-"))  # a config number must not name a file descriptor
    if out == "-":
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(summary)


def _meta(p: NetworkParams, *extra: tuple) -> list[tuple]:
    return [
        ("n_nodes", p.n_nodes),
        ("K", p.coupling),
        ("mu", p.filter_gain),
        ("omega_m", p.free_freq),
        ("tau", p.delay),
        *extra,
    ]


def _write_svg(opts: dict, series: list[Series], title: str, xlabel: str, ylabel: str) -> None:
    path = opts.get("svg")
    if path is None:
        return
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(line_chart(series, title=title, xlabel=xlabel, ylabel=ylabel))


# ---------------------------------------------------------------------------
# commands


def _cmd_curves(opts: dict) -> int:
    kind = _choice(opts, "model", _MODEL, "full-phase", "--model")
    if kind is not ModelKind.FULL_PHASE:
        raise _UsageError("curves supports --model full-phase")
    block = _choice(opts, "block", _BLOCK, "fix", "--block")
    eq_branch = _choice(opts, "eq", _EQ, "minus", "--eq")
    mu_grid, k_grid = opts.get("mu_grid"), opts.get("k_grid")
    if (mu_grid is None) == (k_grid is None):
        raise _UsageError("give exactly one of --mu-grid or --k-grid")
    wm = _omega_m(opts)
    if mu_grid is not None:
        sweep = "mu"
        values = _grid(mu_grid, "--mu-grid") / wm
        base = _mkparams(opts, mu_default=float(values[0]))
    else:
        sweep = "K"
        values = _grid(k_grid, "--k-grid") / wm
        opts = dict(opts, coupling=float(values[0]) * wm)
        base = _mkparams(opts)
    p = normalize(base)
    n_range = _irange(_opt(opts, "n", "0:4"), "--n")
    tau_max = opts.get("tau_max")
    tau_max = _num(tau_max, "--tau-max") * wm if tau_max is not None else None
    rows = bifurcation_curves(kind, p, block, eq_branch, sweep, values, n_range, tau_max)
    header = ["value", "n", "root", "omega", "tau", "delta_sign"]
    out_rows = [
        [r.sweep_value, r.winding, r.root_branch.value, r.omega, r.tau_star, r.delta_sign]
        for r in rows
    ]
    meta = _meta(
        p,
        ("command", "curves"),
        ("sweep", sweep),
        ("block", block.value),
        ("eq", eq_branch.value),
    )
    series: dict[tuple, Series] = {}
    for r in rows:
        key = (r.root_branch.value, r.winding)
        s = series.setdefault(
            key, Series([], [], label=f"{r.root_branch.value} n={r.winding}")
        )
        s.xs.append(r.sweep_value)
        s.ys.append(r.tau_star)
    _write_svg(opts, list(series.values()), "crossing delays", sweep, "tau")
    _emit(
        opts,
        meta,
        header,
        out_rows,
        f"curves: {len(rows)} crossings over {len(values)} {sweep} values",
    )
    return 0


def _cmd_rightmost(opts: dict) -> int:
    kind = _choice(opts, "model", _MODEL, "full-phase", "--model")
    if kind is not ModelKind.FULL_PHASE:
        raise _UsageError("rightmost supports --model full-phase")
    eq_branch = _choice(opts, "eq", _EQ, "plus", "--eq")
    which = _opt(opts, "block", "both")
    names = _choice(opts, "block", _BLOCKS, "both", "--block")
    scheme = _choice(opts, "scheme", _SCHEME, "newton", "--scheme")
    certify = _choice(opts, "certify", _YES, "yes", "--certify")
    wm = _omega_m(opts)
    taus = _grid(_require(opts, "tau_grid", "--tau-grid"), "--tau-grid") * wm
    p = normalize(_mkparams(opts))
    eq = equilibrium(p, eq_branch)
    blocks = build_blocks(ModelKind.FULL_PHASE, p, eq)
    sweeps = {
        name: rightmost_sweep(getattr(blocks, name).with_delay, taus, scheme, certify)
        for name in names
    }
    rows = []
    for i, tau in enumerate(taus):
        per = {name: sw[i] for name, sw in sweeps.items()}
        name = max(per, key=lambda nm: per[nm].lam.real)
        r = per[name]
        rows.append(
            [
                tau,
                r.lam.real,
                r.lam.imag,
                name,
                r.residual,
                all(x.certified for x in per.values()),
            ]
        )
    meta = _meta(
        p,
        ("command", "rightmost"),
        ("eq", eq_branch.value),
        ("block", which),
        ("scheme", scheme.value),
    )
    _write_svg(
        opts,
        [Series([r[0] for r in rows], [r[1] for r in rows], label="Re lambda")],
        "rightmost root",
        "tau",
        "Re lambda",
    )
    worst = max(r[1] for r in rows)
    _emit(
        opts,
        meta,
        ["tau", "re_lambda", "im_lambda", "block", "residual", "certified"],
        rows,
        f"rightmost: max Re lambda = {worst:.6g}, certified {sum(1 for r in rows if r[5])}/{len(rows)}",
    )
    return 0


def _cmd_snmap(opts: dict) -> int:
    kind = _choice(opts, "model", _MODEL, "full-phase", "--model")
    block = _choice(opts, "block", _BLOCK, "fix", "--block")
    eq_branch = _choice(opts, "eq", _EQ, "minus", "--eq")
    wm = _omega_m(opts)
    lo, hi = _window(_require(opts, "tau_window", "--tau-window"), "--tau-window")
    lo, hi = lo * wm, hi * wm
    grid_step = opts.get("grid_step")
    grid_step = _positive(grid_step, "--grid-step") * wm if grid_step is not None else None

    if kind is ModelKind.FULL_PHASE:
        p = normalize(_mkparams(opts))
        eq = equilibrium(p, eq_branch)
        blk = build_blocks(kind, p, eq).fix if block is BlockKind.FIX else build_blocks(kind, p, eq).standard
        cands = sn_scan(blk, (lo, hi), grid_step=grid_step)
        header = ["tau", "omega", "root", "n", "delta", "delta_sign"]
        rows = [
            [c.tau_star, c.omega, c.omega_candidate.root_branch.value, c.winding, c.delta, c.delta_sign]
            for c in cands
        ]
        meta = _meta(p, ("command", "snmap"), ("block", block.value), ("eq", eq_branch.value))
        pts_x = [r[0] for r in rows]
        pts_y = [r[1] for r in rows]
    elif kind is ModelKind.PHASE:
        p = normalize(_mkparams(opts))
        crossings = relative_hopf_scan(
            p, block, (lo, hi), resolution=_resolution(opts), grid_step=grid_step
        )
        header = ["branch_id", "tau", "omega", "root", "n", "delta", "delta_sign"]
        rows = [
            [
                pc.branch_id,
                pc.crossing.tau_star,
                pc.crossing.omega,
                pc.crossing.omega_candidate.root_branch.value,
                pc.crossing.winding,
                pc.crossing.delta,
                pc.crossing.delta_sign,
            ]
            for pc in crossings
        ]
        meta = _meta(p, ("command", "snmap"), ("block", block.value))
        pts_x = [r[1] for r in rows]
        pts_y = [r[2] for r in rows]
    else:
        raise _UsageError("snmap supports --model full-phase or phase")
    _write_svg(opts, [Series(pts_x, pts_y, label="crossings", markers=True)], "imaginary-axis crossings", "tau", "omega")
    _emit(opts, meta, header, rows, f"snmap: {len(rows)} crossings in [{lo:g}, {hi:g}]")
    return 0


def _cmd_releq(opts: dict) -> int:
    wm = _omega_m(opts)
    lo, hi = _window(_require(opts, "tau_window", "--tau-window"), "--tau-window")
    p = normalize(_mkparams(opts, mu_default=1.0))
    resolution = _resolution(opts)
    branches = releq_branches(p, (lo * wm, hi * wm), resolution)
    rows = []
    series = []
    for br in branches:
        for t, oh in zip(br.taus, br.omegas):
            rows.append([br.branch_id, br.birth_tau, t, oh])
        series.append(Series(list(br.taus), list(br.omegas), label=f"branch {br.branch_id}"))
    meta = _meta(p, ("command", "releq"), ("resolution", resolution))
    _write_svg(opts, series, "locked frequencies", "tau", "Omega_hat")
    _emit(
        opts,
        meta,
        ["branch_id", "birth_tau", "tau", "omega_hat"],
        rows,
        f"releq: {len(branches)} branches on [{lo * wm:g}, {hi * wm:g}]",
    )
    return 0


def _cmd_zero_roots(opts: dict) -> int:
    p = normalize(_mkparams(opts, mu_default=1.0))
    events = zero_root_taus(p, _irange(_opt(opts, "n", "0:6"), "--n"))
    rows = [[ev.tau_star, ev.n, ev.delta0, ev.omega_hat] for ev in events]
    meta = _meta(p, ("command", "zero-roots"))
    _write_svg(
        opts,
        [Series([r[0] for r in rows], [r[2] for r in rows], label="delta0", markers=True)],
        "steady-state events",
        "tau",
        "delta0",
    )
    first = f"{events[0].tau_star:.6g}" if events else "none"
    _emit(opts, meta, ["tau", "n", "delta0", "omega_hat"], rows, f"zero-roots: {len(rows)} events, first at tau = {first}")
    return 0


def _cmd_phasediff_check(opts: dict) -> int:
    p = normalize(_mkparams(opts))
    if p.delay <= 0.0:
        raise _UsageError("--tau > 0 is required (the difference coordinates need a delay)")
    seed = _int(_opt(opts, "seed", 0), "--seed")
    samples = _int(_opt(opts, "samples", 300), "--samples", least=1)
    locked = releq_solve(p, p.delay)
    idx = _int(_opt(opts, "omega_index", 0), "--omega-index")
    if not 0 <= idx < len(locked):
        raise _UsageError(f"--omega-index {idx} outside 0..{len(locked) - 1}")
    omega_hat = locked[idx]
    c_const = opts.get("c_const")
    c_const = _num(c_const, "--c-const") if c_const is not None else (omega_hat - p.free_freq) * p.delay
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.5, 1.5, samples) + 1j * rng.uniform(-2.0, 2.0, samples)

    if p.n_nodes == 2:
        ch = char_functions_n2(p, c_const)
        blocks = build_blocks(ModelKind.PHASE, p, omega_hat)
        rows = []
        worst = 0.0
        for z in lam:
            e1 = abs(ch.p1.eval(z) - blocks.fix.eval(z))
            e2 = abs(ch.p2.eval(z) - blocks.standard.eval(z))
            worst = max(worst, e1, e2)
            rows.append([z.real, z.imag, e1, e2])
        ok = worst < 1e-12
        header = ["lam_re", "lam_im", "err_p1", "err_p2"]
        tail = f"max block mismatch {worst:.3g} ({'PASS' if ok else 'FAIL'} at 1e-12)"
    elif p.n_nodes == 3:
        rows = []
        worst = 0.0
        kept = 0
        for z in lam:
            det = determinant_n3(p, c_const, z)
            prod = block_product(p, c_const, z)
            scale = max(abs(det), abs(prod))
            if scale < 1e-8:  # too close to a root for a relative comparison
                continue
            rel = abs(det - prod) / scale
            worst = max(worst, rel)
            kept += 1
            rows.append([z.real, z.imag, abs(det), rel])
        fict = fictitious_roots(p, c_const)
        flags = ", ".join(
            f"lam={fr.lam:g} {'fictitious' if fr.is_fictitious else 'shared with a block'}"
            for fr in fict
        )
        ok = worst < 1e-10 and kept > 0
        header = ["lam_re", "lam_im", "abs_det", "rel_err"]
        tail = f"max factorization error {worst:.3g} over {kept} samples ({'PASS' if ok else 'FAIL'} at 1e-10); {flags}"
    else:
        raise _UsageError("phasediff-check needs --nodes 2 or 3")
    meta = _meta(
        p,
        ("command", "phasediff-check"),
        ("c_const", c_const),
        ("omega_hat", omega_hat),
        ("seed", seed),
    )
    _emit(opts, meta, header, rows, f"phasediff-check: {tail}")
    return 0 if ok else 1


def _cmd_simulate(opts: dict) -> int:
    kind = _choice(opts, "model", _MODEL, "full-phase", "--model")
    eq_branch = _choice(opts, "eq", _EQ, "minus", "--eq")
    classify = _choice(opts, "classify", _YES, "yes", "--classify")
    wm = _omega_m(opts)
    p = normalize(_mkparams(opts))
    t_end = _num(_require(opts, "t_end", "--t-end"), "--t-end") * wm
    omega = None

    if kind is ModelKind.FULL_PHASE:
        eq = equilibrium(p, eq_branch)
        base = equilibrium_state(kind, p, eq)
    elif kind is ModelKind.PHASE:
        base = np.zeros(2 * p.n_nodes)
    elif kind is ModelKind.PHASE_ROTATING_FRAME:
        oh = opts.get("omega_hat")
        oh = _num(oh, "--omega-hat") if oh is not None else releq_solve(p, p.delay)[0]
        omega = oh - p.free_freq
        base = equilibrium_state(kind, p, None)
    else:
        locked = releq_solve(p, p.delay)
        c_const = opts.get("c_const")
        c_const = (
            _num(c_const, "--c-const") if c_const is not None else (locked[0] - p.free_freq) * p.delay
        )
        base = equilibrium_state(kind, p, c_const)

    spec_kind = str(_opt(opts, "perturb", "none"))
    amplitude = _num(_opt(opts, "amplitude", 0.0), "--amplitude")
    if spec_kind == "none":
        history = HistorySpec.constant(base)
    else:
        # parse even at amplitude 0 so a mistyped spec never passes silently
        if kind is ModelKind.PHASE_DIFFERENCE:
            raise _UsageError("node perturbations do not apply to the difference model")
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
        history = HistorySpec.perturbed(base, direction, amplitude)

    step = opts.get("step")
    if step is not None:
        step = _num(step, "--step") * wm
    else:
        div = opts.get("step_div")
        if div is not None:
            if p.delay <= 0.0:
                raise _UsageError("--step-div needs tau > 0")
            step = p.delay / _int(div, "--step-div", least=1)
        elif p.delay > 0.0:
            step = p.delay / 100.0
        else:
            raise _UsageError("--step is required when tau = 0")

    traj = integrate(kind, p, history, t_end, step, omega=omega)
    half = traj.states.shape[1] // 2
    header = ["t"]
    for i in range(1, half + 1):
        header += [f"x1_{i}", f"x2_{i}"]
    rows = [[t, *row] for t, row in zip(traj.times, traj.states)]
    meta = _meta(
        p,
        ("command", "simulate"),
        ("model", kind.value),
        ("step", traj.step),
        ("t_end", t_end),
        ("perturb", spec_kind),
        ("amplitude", amplitude),
    )

    if classify:
        transient = _num(_opt(opts, "transient", 0.6), "--transient")
        if not 0.0 <= transient < 1.0:
            raise _UsageError(f"--transient must lie in [0, 1), got {transient:g}")
        try:
            period = period_estimate(traj, transient)
            if kind is ModelKind.PHASE_DIFFERENCE:
                summary = f"simulate: period {period:.6g} (difference model: no symmetry classification)"
            else:
                cls = symmetry_classify(traj, period, _num(_opt(opts, "tol", 1e-2), "--tol"))
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
        Series(
            list(traj.times[::stride]),
            list(traj.states[::stride, 2 * i]),
            label=f"x1_{i + 1}",
        )
        for i in range(half)
    ]
    _write_svg(opts, series, "trajectory", "t", "position")
    _emit(opts, meta, header, rows, summary)
    return 0


def _cmd_verify(opts: dict) -> int:
    from .acceptance import run_all

    only = opts.get("only")
    try:
        selected = [int(v) for v in str(only).split(",")] if only is not None else None
    except ValueError as exc:
        raise _UsageError(f"--only expects comma-separated integers, got {only!r}") from exc
    results = run_all(selected)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a parse error (unknown flag, missing value) as one line, exit 2.

    Choice-valued options carry no argparse ``choices``: ``_choice`` checks
    them, for flags and config values alike.
    """

    def error(self, message: str):
        self.exit(2, f"usage error: {message}\n")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file of option defaults (flags override)")
    sp.add_argument("--out", help="CSV output path ('-' = stdout, the default)")
    sp.add_argument("--svg", help="also write an SVG chart here")


def _add_params(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--nodes", help="number of loops N (default 2)")
    sp.add_argument("--K", dest="coupling", help="coupling gain")
    sp.add_argument("--mu", help="loop-filter rate")
    sp.add_argument("--omega-m", dest="omega_m", help="free-running frequency (default 1)")
    sp.add_argument("--tau", help="transmission delay")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pllbif",
        description="Bifurcation analysis of delay-coupled oscillator networks",
    )
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("curves", help="crossing-delay curves over a mu or K sweep")
    _add_params(sp)
    _add_common(sp)
    sp.add_argument("--model", help="model (full-phase)")
    sp.add_argument("--block", help="fix (default) | standard")
    sp.add_argument("--eq", help="minus (default) | plus")
    sp.add_argument("--mu-grid", dest="mu_grid", help="start:stop:count")
    sp.add_argument("--k-grid", dest="k_grid", help="start:stop:count")
    sp.add_argument("--n", help="crossing index range lo:hi (default 0:4)")
    sp.add_argument("--tau-max", dest="tau_max")
    sp.set_defaults(func=_cmd_curves)

    sp = sub.add_parser("rightmost", help="rightmost characteristic root along a delay grid")
    _add_params(sp)
    _add_common(sp)
    sp.add_argument("--model", help="model (full-phase)")
    sp.add_argument("--eq", help="equilibrium: plus (default) | minus")
    sp.add_argument("--block", help="fix | standard | both (default)")
    sp.add_argument("--tau-grid", dest="tau_grid", help="start:stop:count")
    sp.add_argument("--scheme", help="newton (default) | halley")
    sp.add_argument("--certify", help="yes (default) | no")
    sp.set_defaults(func=_cmd_rightmost)

    sp = sub.add_parser("snmap", help="imaginary-axis crossings over a delay window")
    _add_params(sp)
    _add_common(sp)
    sp.add_argument("--model", help="full-phase (default) | phase")
    sp.add_argument("--block", help="fix (default) | standard")
    sp.add_argument("--eq", help="minus (default) | plus")
    sp.add_argument("--tau-window", dest="tau_window", help="start:stop")
    sp.add_argument("--grid-step", dest="grid_step")
    sp.add_argument("--resolution", help="branch sampling (phase model)")
    sp.set_defaults(func=_cmd_snmap)

    sp = sub.add_parser("releq", help="locked-frequency branches over a delay window")
    _add_params(sp)
    _add_common(sp)
    sp.add_argument("--tau-window", dest="tau_window", help="start:stop")
    sp.add_argument("--resolution")
    sp.set_defaults(func=_cmd_releq)

    sp = sub.add_parser("zero-roots", help="steady-state bifurcation delays of the phase model")
    _add_params(sp)
    _add_common(sp)
    sp.add_argument("--n", help="event index range lo:hi (default 0:6)")
    sp.set_defaults(func=_cmd_zero_roots)

    sp = sub.add_parser("phasediff-check", help="difference-model consistency checks")
    _add_params(sp)
    _add_common(sp)
    sp.add_argument("--seed", help="seed of the sampled lambda values (default 0)")
    sp.add_argument("--samples")
    sp.add_argument("--omega-index", dest="omega_index")
    sp.add_argument("--c-const", dest="c_const")
    sp.set_defaults(func=_cmd_phasediff_check)

    sp = sub.add_parser("simulate", help="integrate a model and classify the orbit")
    _add_params(sp)
    _add_common(sp)
    sp.add_argument("--model", help=f"{' | '.join(_MODEL)} (default full-phase)")
    sp.add_argument("--eq", help="minus (default) | plus")
    sp.add_argument("--perturb", help="none | sync | pair:i,j | isotypic:j[:imag]")
    sp.add_argument("--amplitude")
    sp.add_argument("--t-end", dest="t_end")
    sp.add_argument("--step")
    sp.add_argument("--step-div", dest="step_div", help="step = tau / DIV")
    sp.add_argument("--transient", help="discarded fraction (default 0.6)")
    sp.add_argument("--classify", help="yes (default) | no")
    sp.add_argument("--tol", help="symmetry residual tolerance")
    sp.add_argument("--omega-hat", dest="omega_hat", help="frame rate (rotating frame)")
    sp.add_argument("--c-const", dest="c_const")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(sp)
    sp.add_argument("--only", help="comma-separated criterion numbers")
    sp.set_defaults(func=_cmd_verify)

    return ap


_ALIASES = {"k": "coupling", "K": "coupling"}


def _merged(args: argparse.Namespace) -> dict:
    opts = {k: v for k, v in vars(args).items() if k not in ("config", "command", "func")}
    if getattr(args, "config", None) is not None:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise _UsageError("--config must hold a JSON object")
        for key, val in raw.items():
            norm = key.replace("-", "_")
            norm = _ALIASES.get(norm, norm)
            if norm not in opts:
                raise _UsageError(f"--config key {key!r} is not an option of {args.command}")
            if opts[norm] is None:
                opts[norm] = val
    return opts


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
        opts = _merged(args)
        return args.func(opts)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    except PllbifError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
