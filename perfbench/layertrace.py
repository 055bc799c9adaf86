"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the `intervalvote` modules from the
outside; no library file changes.  A function imported with
`from ... import` is bound once per importing module, so every module
attribute that *is* the original function object is replaced (and put
back by `uninstall`).  Methods are patched on their class.

Layer-boundary functions get spans: name, start, end, parent span and
the id of the benchmark operation they belong to.  Spans are kept in
compact arrays and written out when the run ends.  Self time is a span's
duration minus the time covered by its child spans.  The three hottest
inner functions (`individual_position`, `WeakOrder.strictly_prefers`,
`RuleFn.__call__`) only get call counters, which bounds the overhead.

Everything runs in one thread, so no span waits on another and no wait
time is recorded.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from workloads import WinnerGrid

LAYERS = ("core", "rules", "preferences", "axioms", "search", "cli")

# (span name, module, attribute path) of every function that gets a span.
SPANS = (
    ("core.profile_init", "core", "Profile.__post_init__"),
    ("core.to_profile", "core", "AnonProfile.to_profile"),
    ("core.with_interval", "core", "Profile.with_interval"),
    ("core.delete_endpoint", "core", "delete_endpoint"),
    ("core.combine", "core", "combine"),
    ("core.replicate", "core", "replicate"),
    ("core.anonymize", "core", "anonymize"),
    ("rules.ptr_winner", "rules", "ptr_winner"),
    ("rules.collective_position", "rules", "collective_position"),
    ("rules.check_compatible", "rules", "check_compatible"),
    ("preferences.enumerate_wsp_with_plateau", "preferences", "enumerate_wsp_with_plateau"),
    ("search.falsify", "search", "falsify"),
    ("cli.main", "cli", "main"),
) + tuple(
    (f"axioms.{fn}", "axioms", fn)
    for fn in (
        "check_robustness",
        "check_reinforcement",
        "check_unanimity",
        "check_anonymity",
        "check_right_biased_continuity",
        "check_strategyproofness",
        "check_strong_uncompromisingness",
        "check_majority_criterion",
        "check_strong_unanimity",
        "check_weak_efficiency",
        "check_shift_symmetry",
        "replay_violation",
    )
)

# Generators: one span per `next`, calls counted per generator created.
GENERATOR_SPANS = (("search.enumerate_profiles", "search", "enumerate_profiles"),)

# Hot inner functions: call counters only.
COUNTERS = (
    ("rules.individual_position", "rules", "individual_position"),
    ("preferences.strictly_prefers", "preferences", "WeakOrder.strictly_prefers"),
    ("axioms.rule_evals", "axioms", "RuleFn.__call__"),
)

CHECK_NAMES = tuple(name for name, _, _ in SPANS if name.startswith("axioms.check_"))


class Tracer:
    """Spans, counters and per-layer aggregates of one traced pass."""

    def __init__(self, pkg):
        self._pkg = pkg
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self.span_id = array("i")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.ptr_seconds: defaultdict = defaultdict(float)  # inclusive, by key
        self.ptr_calls: Counter = Counter()
        self.lambdas: list[int] = []
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._observe = self._observers()

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self):
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, nid, name, frame, parent, start, end):
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self.span_id.append(frame[0])
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        return duration

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        observe = self._observe.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            frame, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                duration = tracer._close(nid, name, frame, parent, start, perf_counter())
            if observe is not None:
                observe(args, result, duration)
            return result

        return wrapper

    def _generator_wrapper(self, name, fn):
        tracer = self
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame, parent = tracer._open()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    tracer._close(nid, name, frame, parent, start, perf_counter())
                tracer.counts[f"{name}.yielded"] += 1
                yield item

        return wrapper

    def _counter_wrapper(self, name, fn):
        calls = self.calls
        errors = self.errors
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise

        return wrapper

    # -- observers: counts read off arguments and results -------------------

    def _observers(self):
        anon_cls = self._pkg.core.AnonProfile
        result_cls = self._pkg.axioms.CheckResult

        def ptr_winner(args, result, duration):
            p = args[1]
            kind = "anon" if isinstance(p, anon_cls) else "id"
            for key in (kind, (p.m, p.n, kind)):
                self.ptr_seconds[key] += duration
                self.ptr_calls[key] += 1

        def replicate(args, result, duration):
            self.counts["core.replicate.voters_out"] += result.n

        def wsp(args, result, duration):
            self.counts["preferences.enumerate_wsp_with_plateau.orders_out"] += len(result)

        def cli_main(args, result, duration):
            # the benchmark captures each command's stdout in a fresh buffer
            if isinstance(sys.stdout, io.StringIO):
                self.counts["cli.main.output_bytes"] += len(sys.stdout.getvalue().encode())

        def falsify(args, result, duration):
            self.counts["search.instances"] += result.checked

        def check(args, result, duration):
            self.counts["axioms.checks"] += 1
            # list-returning checkers always test their premise
            status = result.status if isinstance(result, result_cls) else "pass"
            if status != "vacuous":
                self.counts["axioms.nonvacuous"] += 1
            if status == "undetermined":
                self.counts["axioms.undetermined"] += 1

        def continuity(args, result, duration):
            check(args, result, duration)
            detail = result.detail
            self.lambdas.append(detail["lambda"] if "lambda" in detail else detail["lambda_max"])

        observers = {name: check for name in CHECK_NAMES}
        observers.update(
            {
                "rules.ptr_winner": ptr_winner,
                "core.replicate": replicate,
                "preferences.enumerate_wsp_with_plateau": wsp,
                "search.falsify": falsify,
                "cli.main": cli_main,
                "axioms.check_right_biased_continuity": continuity,
            }
        )
        return observers

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        modules = [getattr(self._pkg, layer) for layer in LAYERS] + [self._pkg]
        plan = (
            [(name, mod, path, self._span_wrapper) for name, mod, path in SPANS]
            + [(name, mod, path, self._generator_wrapper) for name, mod, path in GENERATOR_SPANS]
            + [(name, mod, path, self._counter_wrapper) for name, mod, path in COUNTERS]
        )
        for name, mod_name, path, make in plan:
            owner = getattr(self._pkg, mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = make(name, original)
            if outer:  # a method: patch the class
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this pass, by name."""
        out: dict[str, float] = {}
        for name, _, _ in SPANS + GENERATOR_SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _, _ in COUNTERS:
            out[name if name == "axioms.rule_evals" else f"{name}.calls"] = self.calls[name]
        for key in (
            "core.replicate.voters_out",
            "preferences.enumerate_wsp_with_plateau.orders_out",
            "search.enumerate_profiles.yielded",
            "search.instances",
            "cli.main.output_bytes",
            "axioms.checks",
            "axioms.undetermined",
        ):
            out[key] = self.counts[key]

        def mean_us(key):
            calls = self.ptr_calls[key]
            return self.ptr_seconds[key] / calls * 1e6 if calls else 0.0

        out["rules.ptr_winner.id_us"] = mean_us("id")
        out["rules.ptr_winner.anon_us"] = mean_us("anon")
        for m in WinnerGrid.GRID_M:
            for n in WinnerGrid.GRID_N:
                for kind in ("id", "anon"):
                    out[f"rules.ptr_winner.m{m}_n{n}.{kind}_us"] = mean_us((m, n, kind))

        checks = self.counts["axioms.checks"]
        per_check = 1 / checks if checks else 0.0
        out["axioms.rule_evals_per_check"] = self.calls["axioms.rule_evals"] * per_check
        out["axioms.nonvacuous_ratio"] = self.counts["axioms.nonvacuous"] * per_check
        out["axioms.continuity.lambda_mean"] = (
            sum(self.lambdas) / len(self.lambdas) if self.lambdas else 0.0
        )
        out["axioms.continuity.lambda_max_used"] = max(self.lambdas, default=0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.spans"] = len(self.span_id)
        return out

    def coverage(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        out = {"search.instances": self.counts["search.instances"]}
        for name in CHECK_NAMES:
            out[f"{name}.calls"] = self.calls[name]
        out["axioms.replay_violation.calls"] = self.calls["axioms.replay_violation"]
        out["rules.ptr_winner.calls"] = self.calls["rules.ptr_winner"]
        return out

    def write_spans(self, path_stem: str) -> None:
        """Write the spans as `<stem>.bin` (raw arrays) plus `<stem>.json`."""
        os.makedirs(os.path.dirname(path_stem) or ".", exist_ok=True)
        fields = [
            ("id", self.span_id),
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
            ("op", self.span_op),
        ]
        with open(path_stem + ".bin", "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = {
            "count": len(self.span_id),
            "names": self._names,
            "layout": [[field, arr.typecode, arr.itemsize] for field, arr in fields],
            "note": "fields are stored one after another, each as `count` "
            "native-endian items; parent -1 is a root span, times are "
            "perf_counter seconds",
        }
        with open(path_stem + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
