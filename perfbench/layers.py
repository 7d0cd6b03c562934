"""Per-layer tracing of pllbif from outside the package.

``Tracer.install`` replaces every public function of a layer module (the names
in its ``__all__``) at every module attribute that binds it, so that calls the
library makes internally are seen too: ``simulator.rhs`` is the integrator's
handle on ``model.rhs``, ``phasemodel.sn_scan`` the scan inside
``relative_hopf_scan``, ``spectrum.root_census`` the census inside
certification.  ``uninstall`` puts the originals back.

Each wrapped call adds to an aggregate record of its function: calls, errors,
inclusive time, self time (inclusive time minus the time of wrapped calls made
under it), and busy time (inclusive time not nested in another call of the
same function).  Aggregates instead of per-call spans keep the cost bounded
for functions called hundreds of thousands of times per pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("model", "simulator", "orbit", "charfun", "snmap", "spectrum", "phasemodel", "phasediff", "cli")
# modules whose attributes may bind a layer function
BINDERS = ("pllbif", *(f"pllbif.{m}" for m in LAYERS))


class Record:
    __slots__ = ("calls", "errors", "total", "self_time", "busy", "active", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.total = 0.0
        self.self_time = 0.0
        self.busy = 0.0
        self.active = 0
        self.extra: dict[str, float] = {}


def _steps(rec: Record, out) -> None:
    rec.extra["steps"] = rec.extra.get("steps", 0) + len(out.times) - 1


def _certified(rec: Record, out) -> None:
    rec.extra["certified"] = rec.extra.get("certified", 0) + bool(out.certified)


# results some metrics are read from
AFTER = {"simulator.integrate": _steps, "spectrum.rightmost_root": _certified}


class Tracer:
    def __init__(self) -> None:
        self.records: dict[str, Record] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []

    def reset(self) -> None:
        for name in self.records:  # in place: the wrappers hold this dict
            self.records[name] = Record()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pllbif.{layer}")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn):
                    originals[fn] = f"{layer}.{name}"
        wrappers = {}
        for fn, key in originals.items():
            self.records.setdefault(key, Record())
            wrappers[fn] = self._wrap(fn, key)
        for modname in BINDERS:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches = []

    def _wrap(self, fn, key: str):
        stack = self._stack
        perf = time.perf_counter
        after = AFTER.get(key)
        records = self.records

        def traced(*args, **kwargs):
            rec = records[key]
            rec.active += 1
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.errors += 1
                raise
            finally:
                d = perf() - t0
                child = stack.pop()
                rec.calls += 1
                rec.total += d
                rec.self_time += d - child
                rec.active -= 1
                if rec.active == 0:
                    rec.busy += d
                if stack:
                    stack[-1] += d
            if after is not None:
                after(rec, out)
            return out

        return functools.wraps(fn)(traced)

    def get(self, key: str) -> Record:
        return self.records.get(key) or Record()


def per_call_us(rec: Record) -> float:
    return rec.total / rec.calls * 1e6 if rec.calls else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    g = tr.get
    rhs, integ = g("model.rhs"), g("simulator.integrate")
    rm, solve = g("spectrum.rightmost_root"), g("phasemodel.releq_solve")
    steps = integ.extra.get("steps", 0)
    returned = rm.calls - rm.errors
    return {
        "model.rhs.calls": rhs.calls,
        "model.rhs.us_per_call": per_call_us(rhs),
        "simulator.integrate.calls": integ.calls,
        "simulator.integrate.steps": steps,
        "simulator.integrate.us_per_step": integ.total / steps * 1e6 if steps else 0.0,
        "simulator.integrate.self_s": integ.self_time,
        "simulator.period_estimate.busy_s": g("simulator.period_estimate").busy,
        "simulator.symmetry_classify.busy_s": g("simulator.symmetry_classify").busy,
        "orbit.fit_profile.busy_s": g("orbit.fit_profile").busy,
        "orbit.refine_orbit.busy_s": g("orbit.refine_orbit").busy,
        "spectrum.rightmost_root.calls": rm.calls,
        "spectrum.rightmost_root.us_per_call": per_call_us(rm),
        "spectrum.rightmost_root.errors": rm.errors,
        "spectrum.root_census.calls": g("spectrum.root_census").calls,
        "spectrum.root_census.busy_s": g("spectrum.root_census").busy,
        "spectrum.lambert_w.calls": g("spectrum.lambert_w").calls,
        "spectrum.certified_ratio": rm.extra.get("certified", 0) / returned if returned else 0.0,
        "snmap.sn_scan.calls": g("snmap.sn_scan").calls,
        "snmap.sn_scan.busy_s": g("snmap.sn_scan").busy,
        "snmap.bifurcation_curves.busy_s": g("snmap.bifurcation_curves").busy,
        "charfun.build_blocks.calls": g("charfun.build_blocks").calls,
        "phasemodel.releq_solve.calls": solve.calls,
        "phasemodel.releq_solve.us_per_call": per_call_us(solve),
        "phasemodel.releq_branches.calls": g("phasemodel.releq_branches").calls,
        "phasemodel.releq_branches.busy_s": g("phasemodel.releq_branches").busy,
        "phasemodel.relative_hopf_scan.self_s": g("phasemodel.relative_hopf_scan").self_time,
        "phasediff.determinant_n3.calls": g("phasediff.determinant_n3").calls,
        "phasediff.determinant_n3.busy_s": g("phasediff.determinant_n3").busy,
        "cli.main.calls": g("cli.main").calls,
        "cli.main.self_s": g("cli.main").self_time,
    }
