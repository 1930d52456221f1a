"""Spans and counters around dexsim's layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each ``dexsim`` module
with wrappers, under every name they were imported as (``add_block`` lives
in ``chain``, ``harness`` and ``scenario``), and wraps the ``receive`` of
every contract ``make_contract`` returns.  ``uninstall`` puts the originals
back.  A span is ``(name, start, end, parent, trace_id)``; hot leaf
functions (``rec_get``, ``sort_key``, ``event_record``) are only counted.
Spans and counts are recorded only between ``start`` and ``stop`` and stay
in memory until ``write``.

``per_layer_metrics`` turns spans and counters into the per-layer metrics
listed in BENCHMARK.json.  A span's self time is its duration minus its
children's durations; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import gc
import gzip
import time
from collections import Counter, defaultdict

from dexsim import chain, checks, cli, cpmm, fa2, fa12, harness, payload, scenario
from dexsim.chain import BlockError, ChainState

CONTRACTS = {"cpmm": cpmm, "fa12": fa12, "fa2": fa2}
CHECKERS = (
    "tez_pool",
    "no_overdraft",
    "main_counter",
    "lqt_supply_composed",
    "constant_product",
    "entrypoint_arith",
    "share_value",
    "incoming_outgoing_all",
    "lqt_condition",
    "allowance_ledger",
    "lqt_supply",
)
DECODE_CALLERS = ("contract", "checks", "other")


def _snapshot_log_entries(snapshots) -> int:
    return sum(len(s.state.log) for s in snapshots)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.trace_id = None
        self.active = False
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = None
        self._patched: list = []

    def start(self, trace_id) -> None:
        self.trace_id = trace_id
        self.active = True

    def stop(self) -> float:
        self.active = False
        return 0.0

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, on_result=None, on_error=None):
        """Wrap ``fn`` in a span.  ``name`` may be a function of the parent
        span's name; ``on_result(args, result)`` and ``on_error(exc)`` update
        counters."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            label = name if isinstance(name, str) else name(spans[parent][0] if parent >= 0 else "")
            idx = len(spans)
            spans.append([label, 0.0, 0.0, parent, self.trace_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter() if self.active else None
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_gen2 += info["generation"] == 2

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def _patch_all(self, owners, attr, new) -> None:
        for owner in owners:
            self._patch(owner, attr, new)

    def install(self) -> None:
        c = self.counts
        span = self.span

        # harness
        self._patch(harness, "wire_exchange", span("harness.wire_exchange", harness.wire_exchange))
        for fname in ("gen_trace", "replay_trace"):
            self._patch(harness, fname, span(
                f"harness.{fname}", getattr(harness, fname),
                on_result=lambda _a, t: c.update({"chain.snapshot_log_entries": _snapshot_log_entries(t.snapshots)}),
            ))

        # chain
        add_block = span("chain.add_block", chain.add_block,
                         on_error=lambda e: c.update({"chain.add_block.rejected": isinstance(e, BlockError)}))
        self._patch_all((chain, harness, scenario), "add_block", add_block)
        self._patch(ChainState, "clone", span("chain.clone", ChainState.clone))
        self._patch(ChainState, "outgoing_txs", span(
            "chain.outgoing_txs", ChainState.outgoing_txs,
            on_result=lambda a, _r: c.update({"chain.outgoing_txs.scanned": len(a[0].log)}),
        ))
        for meth in ("incoming_calls", "deployment_info"):
            self._patch(ChainState, meth, span(f"chain.{meth}", getattr(ChainState, meth)))

        # contracts
        for mod_name, mod in CONTRACTS.items():
            self._patch(mod, "decode_state", span(_decode_label(mod_name), mod.decode_state))
            self._patch(mod, "encode_state", span(f"{mod_name}.encode_state", mod.encode_state))
            make = self._traced_make_contract(mod_name, mod.make_contract)
            self._patch(mod, "make_contract", make)
            self._patch(scenario.CONTRACT_REGISTRY, mod_name, make)

        # payload
        self._patch_all((payload, scenario), "parse", span("payload.parse", payload.parse))
        render = self._outermost_span("payload.render", payload.render)
        self._patch_all((payload, chain, scenario), "render", render)
        self._patch_all((payload, checks), "rec_get", self.counted("payload.rec_get.calls", payload.rec_get))
        self._patch(payload, "sort_key", self.counted("payload.sort_key.calls", payload.sort_key))

        # checks
        for name in CHECKERS:
            fn = getattr(checks, f"check_{name}")
            self._patch(checks, f"check_{name}", span(
                f"checks.{name}", fn,
                on_result=lambda _a, r, key=f"checks.{name}.violations": c.update({key: not r.passed}),
            ))
        self._patch(checks, "run_checks_for", span("checks.run_checks_for", checks.run_checks_for))

        # scenario and cli
        self._patch_all((scenario, cli), "load_scenario", span("scenario.load_scenario", scenario.load_scenario))
        self._patch_all((scenario, cli), "run_scenario", span(
            "scenario.run_scenario", scenario.run_scenario,
            on_result=lambda _a, r: c.update({"chain.snapshot_log_entries": _snapshot_log_entries(r.snapshots)}),
        ))
        self._patch(scenario, "event_record", self.counted("scenario.event_record.calls", scenario.event_record))
        self._patch(cli, "cmd_run", span("cli.cmd_run", cli.cmd_run))

        gc.callbacks.append(self._gc_callback)

    def _traced_make_contract(self, mod_name, make):
        def traced_make(*args, **kwargs):
            ref = make(*args, **kwargs)
            receive = self.span(
                f"{mod_name}.receive", ref.receive,
                on_result=lambda _a, r: self.counts.update({f"{mod_name}.receive.rejects": r is None}),
            )
            return dataclasses.replace(ref, receive=receive)

        return traced_make

    def _outermost_span(self, name, fn):
        """A span around the outermost call only; recursive calls run bare."""
        traced = self.span(name, fn)
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, old in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict, float]:
        """Per span name: calls, inclusive seconds, self seconds; and the
        sum of all self times."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _parent, _tid) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, incl, self_s, sum(self_s.values())

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated lines; ``parent`` is a line index
        (0 = first span) or -1."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\ttrace_id\n")
            f.writelines(f"{n}\t{a!r}\t{b!r}\t{p}\t{t}\n" for n, a, b, p, t in self.spans)


def _decode_label(mod_name: str):
    prefix = f"{mod_name}.decode_state"

    def label(parent: str) -> str:
        if parent.endswith(".receive"):
            return f"{prefix}.contract"
        if parent.startswith("checks."):
            return f"{prefix}.checks"
        return f"{prefix}.other"

    return label


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the spans and counters give (the caller adds
    the scaling probe and the traced pass's wall time)."""
    calls, incl, self_s, self_sum = tracer.totals()
    c = tracer.counts
    m: dict[str, float] = {
        "harness.wire_exchange.s": incl["harness.wire_exchange"],
        "harness.gen_trace.self_s": self_s["harness.gen_trace"],
        "harness.replay_trace.self_s": self_s["harness.replay_trace"],
        "chain.add_block.calls": calls["chain.add_block"],
        "chain.add_block.self_s": self_s["chain.add_block"],
        "chain.rejected_block_frac": _frac(c["chain.add_block.rejected"], calls["chain.add_block"]),
        "chain.clone.calls": calls["chain.clone"],
        "chain.clone.s": incl["chain.clone"],
        "chain.snapshot_log_entries": c["chain.snapshot_log_entries"],
        "chain.outgoing_txs.calls": calls["chain.outgoing_txs"],
        "chain.outgoing_txs.s": incl["chain.outgoing_txs"],
        "chain.outgoing_txs.scanned": c["chain.outgoing_txs.scanned"],
    }
    for meth in ("incoming_calls", "deployment_info"):
        m[f"chain.{meth}.calls"] = calls[f"chain.{meth}"]
        m[f"chain.{meth}.s"] = incl[f"chain.{meth}"]
    for mod in CONTRACTS:
        m[f"{mod}.receive.calls"] = calls[f"{mod}.receive"]
        m[f"{mod}.receive.s"] = incl[f"{mod}.receive"]
        m[f"{mod}.receive.reject_frac"] = _frac(c[f"{mod}.receive.rejects"], calls[f"{mod}.receive"])
        for caller in DECODE_CALLERS:
            m[f"{mod}.decode_state.{caller}.calls"] = calls[f"{mod}.decode_state.{caller}"]
            m[f"{mod}.decode_state.{caller}.s"] = incl[f"{mod}.decode_state.{caller}"]
        m[f"{mod}.encode_state.s"] = incl[f"{mod}.encode_state"]
    m["payload.parse.s"] = incl["payload.parse"]
    m["payload.render.s"] = incl["payload.render"]
    m["payload.rec_get.calls"] = c["payload.rec_get.calls"]
    m["payload.sort_key.calls"] = c["payload.sort_key.calls"]
    for name in CHECKERS:
        m[f"checks.{name}.calls"] = calls[f"checks.{name}"]
        m[f"checks.{name}.s"] = incl[f"checks.{name}"]
        m[f"checks.{name}.violations"] = c[f"checks.{name}.violations"]
    m["checks.run_checks_for.s"] = incl["checks.run_checks_for"]
    m["scenario.load_scenario.s"] = incl["scenario.load_scenario"]
    m["scenario.run_scenario.self_s"] = self_s["scenario.run_scenario"]
    m["scenario.event_record.calls"] = c["scenario.event_record.calls"]
    m["cli.cmd_run.self_s"] = self_s["cli.cmd_run"]
    m["runtime.gc_s"] = tracer.gc_s
    m["runtime.gc_gen2"] = tracer.gc_gen2
    m["trace.self_sum_s"] = self_sum
    return m


def _frac(n: int, d: int) -> float:
    return n / d if d else 0.0
