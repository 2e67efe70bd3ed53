"""Layer spans recorded from outside the program.

A Tracer replaces functions of the grwlab modules, and the four numpy.fft
transforms, with wrappers that time each call.  Every module namespace that
holds a patched function gets the wrapper, so calls made through
`from .collapse import apply_hit` are seen too; `restore()` puts the
originals back.  Nothing under src/grwlab is edited.

A span has a name `layer.op`.  Its self time is its duration minus the time
covered by its child spans.  A call made while a span of the same name is
open (apply_hit -> localization_amplitude) is counted as part of that span,
not as a span of its own.  Spans are aggregated as they close: per name the
call count, the duration of every call and the total self time.
"""

from __future__ import annotations

import sys
from array import array
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler
from time import perf_counter

import numpy as np

GRW_MODULES = ("cli", "experiments", "collapse", "propagator", "qstate",
               "ensemble", "rngstream")

# (span name, module, attribute); Class.attr names a method or property
SPANS = (
    ("cli.io", "cli", "write_csv"),
    ("cli.io", "cli", "write_json"),
    ("experiments.experiment", "experiments", "born_ensemble"),
    ("experiments.experiment", "experiments", "decoherence_scan"),
    ("experiments.experiment", "experiments", "visibility_experiment"),
    ("experiments.experiment", "experiments", "heating_experiment"),
    ("experiments.screen", "experiments", "momentum_screen"),
    # the trajectory loop of visibility and heating, counted with the
    # trajectory self time; it also keeps visibility's no-collapse control,
    # run outside the map, out of the experiment's self time
    ("experiments.traj.driver", "collapse", "grw_trajectory"),
    ("propagator.init", "propagator", "Stepper.__init__"),
    ("propagator.step", "propagator", "Stepper.step"),
    ("propagator.step", "propagator", "split_step"),
    ("collapse.density", "collapse", "hit_position_density"),
    ("collapse.density", "collapse", "_density_convolution"),
    ("collapse.draw", "collapse", "sample_hit_center"),
    ("collapse.apply", "collapse", "apply_hit"),
    ("collapse.apply", "collapse", "localization_amplitude"),
    ("qstate.observables", "qstate", "observables"),
    ("qstate.overlap", "qstate", "WaveFunction.overlap"),
    ("qstate.state", "qstate", "gaussian_packet"),
    ("qstate.state", "qstate", "superpose"),
    ("qstate.state", "qstate", "WaveFunction.with_amps"),
    ("qstate.state", "qstate", "WaveFunction.normalized"),
    ("qstate.state", "qstate", "WaveFunction.norm2"),
    ("qstate.state", "qstate", "WaveFunction.density"),
    ("qstate.state", "qstate", "WaveFunction.is_normalized"),
    ("qstate.state", "qstate", "HybridState.normalized"),
    ("qstate.state", "qstate", "HybridState.weights"),
    ("qstate.grid", "qstate", "Grid1D.x"),
    ("qstate.grid", "qstate", "Grid1D.k"),
    ("rng.draw", "rngstream", "trajectory_rng"),
    ("rng.draw", "rngstream", "exponential_variate"),
)
MAP_SPAN = ("ensemble.map", "ensemble", "map_trajectories")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
TRAJ = "experiments.traj"
# counts kept per trajectory: made while a trajectory span is open
TRAJ_COUNTED = ("propagator.step", "fft", "collapse.draw", "qstate.observables",
                "qstate.overlap")


def _fft_points(name, args, kwargs) -> int:
    """Transform length of one numpy.fft call (the output length for irfft)."""
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    m = np.shape(args[0])[kwargs.get("axis", -1)]
    return 2 * (m - 1) if name == "irfft" else m


class Stat:
    __slots__ = ("count", "durations", "self_time", "points")

    def __init__(self):
        self.count = 0
        # compact, so that pool workers forked after a traced run inherit
        # little of it (ensemble.worker_rss_mb)
        self.durations = array("d")
        self.self_time = 0.0
        self.points = 0


class Tracer:
    """Spans of one or more cli.run calls; see the module docstring."""

    def __init__(self, full: bool):
        self.full = full
        self.stack: list[list] = []  # open spans: [name, child time]
        self.stats: dict[str, Stat] = {}
        self.traj_counts = dict.fromkeys(TRAJ_COUNTED, 0)
        self.traj_points = 0
        self.result_bytes = 0
        self.pools = 0
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        stack, stat = self.stack, self.stat(name)

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat.count += 1
                stat.durations.append(dur)
                stat.self_time += dur - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, fn, wrapper) -> None:
        """Point every grwlab module-level name bound to fn at wrapper."""
        for mod_name in GRW_MODULES:
            ns = sys.modules.get(f"grwlab.{mod_name}")
            for key, value in list(vars(ns).items()) if ns else ():
                if value is fn:
                    self._set(ns, key, wrapper)

    def _patch(self, name: str, module: str, attr: str) -> None:
        mod = sys.modules.get(f"grwlab.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                self.missing.append(f"{module}.{attr}")
                return
            if isinstance(raw, property):
                self._set(cls, meth, property(self.wrap(name, raw.fget)))
            else:
                self._set(cls, meth, self.wrap(name, raw))
            return
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._replace_everywhere(fn, self.wrap(name, fn))

    def install(self) -> None:
        """Patch the map (always) and every layer (when full)."""
        import grwlab.cli  # noqa: F401  (imports every module patched below)
        ensemble = sys.modules.get("grwlab.ensemble")
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pools += 1
                super().__init__(*args, **kwargs)

        if getattr(ensemble, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            self._set(ensemble, "ProcessPoolExecutor", CountingPool)
        else:
            self.missing.append("ensemble.ProcessPoolExecutor")
        self._patch_map()
        if not self.full:
            return
        for name, module, attr in SPANS:
            self._patch(name, module, attr)
        for fname in FFT_FUNCS:
            fft_stat = self.stat("fft")

            def count_points(args, kwargs, result, fname=fname, st=fft_stat):
                st.points += _fft_points(fname, args, kwargs)

            self._set(np.fft, fname, self.wrap("fft", getattr(np.fft, fname), count_points))

    def _patch_map(self) -> None:
        name, module, attr = MAP_SPAN
        real_map = getattr(sys.modules.get(f"grwlab.{module}"), attr, None)
        if real_map is None:
            self.missing.append(f"{module}.{attr}")
            return
        tracer = self

        def map_with_traj_spans(fn, *args, **kwargs):
            if tracer.full:
                fn = tracer.traj_wrapper(fn)
            return real_map(fn, *args, **kwargs)

        self._replace_everywhere(real_map, self.wrap(name, map_with_traj_spans))

    def traj_wrapper(self, fn):
        """Time one trajectory and record the counts and bytes it produced.

        Used in serial runs only: the wrapper is a closure, which a process
        pool could not pickle.
        """
        counted = [self.stat(k) for k in TRAJ_COUNTED]
        fft = self.stat("fft")
        timed = self.wrap(TRAJ, fn)

        def traj(*args, **kwargs):
            before = [s.count for s in counted]
            points = fft.points
            result = timed(*args, **kwargs)
            for key, s, b in zip(TRAJ_COUNTED, counted, before):
                self.traj_counts[key] += s.count - b
            self.traj_points += fft.points - points
            self.result_bytes += len(ForkingPickler.dumps(result))
            return result

        return traj

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries ----------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        return sum(s.self_time for k, s in self.stats.items()
                   if k == prefix or k.startswith(prefix + "."))

    def total(self, name: str) -> float:
        return sum(self.stats[name].durations) if name in self.stats else 0.0

    def durations(self, name: str):
        return self.stats[name].durations if name in self.stats else ()
