"""Spans around calls into braidmono's public functions, installed from
outside the library.

Library modules import functions by name (`groupoid` binds
`extremal_points`, `reconstruct` binds `chi_evaluate`, ...), so a wrapper
replaces every binding of the original in every braidmono module.  After
installing, no module may still hold an unwrapped reference; uninstalling
restores every module dictionary exactly.

A span is (name, start, end, parent span, op id), kept in flat arrays and
written out when the run ends.  Self time is a span's duration minus the
time its child spans cover.  Functions marked "count" are hot leaves whose
calls are counted without a span; their time stays with the caller.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

MODULES = [
    "words", "groupring", "matrices", "braids", "cocycles", "monodromy",
    "geometry", "groupoid", "reconstruct", "serialize", "cli",
]

# (module, attribute path, kind, reported stats)
TARGETS = [
    ("words", "braid_act_word", "span", ("calls", "self_ms")),
    ("words", "FreeWord.__mul__", "count", ("calls",)),
    ("groupring", "abelian_reduce", "span", ("calls", "self_ms")),
    ("groupring", "GroupRingElt.__add__", "count", ("calls",)),
    ("matrices", "MonomialGammaMatrix.act", "span", ("calls", "self_ms")),
    ("matrices", "MonomialGammaMatrix.compose", "count", ("calls",)),
    ("matrices", "RingMatrix.__mul__", "span", ("calls", "self_ms")),
    ("braids", "braid_permutation", "span", ("calls", "self_ms")),
    ("braids", "linking_numbers", "span", ("self_ms",)),
    ("cocycles", "pl_cocycle", "span", ("calls", "self_ms")),
    ("cocycles", "magnus_cocycle", "span", ("calls", "self_ms")),
    ("cocycles", "fox_derivative", "span", ("calls", "self_ms")),
    ("cocycles", "reduce_reps", "span", ("self_ms",)),
    ("monodromy", "theoremB_S", "span", ("calls", "self_ms")),
    ("monodromy", "rho", "span", ("calls", "self_ms")),
    ("monodromy", "mat_mul", "span", ("calls", "self_ms")),
    ("monodromy", "character", "span", ("calls", "self_ms")),
    ("monodromy", "validate_N", "span", ("self_ms",)),
    ("geometry", "orient", "span", ("calls", "self_ms")),
    ("geometry", "extremal_points", "span", ("calls", "self_ms")),
    ("geometry", "angular_order", "span", ("calls",)),
    ("geometry", "chain", "span", ("calls",)),
    ("geometry", "mu_index", "span", ("calls",)),
    ("geometry", "is_local_triangle", "span", ("calls", "self_ms")),
    ("geometry", "validate_admissible", "span", ("self_ms",)),
    ("groupoid", "chi_evaluate", "span", ("calls", "self_ms")),
    ("groupoid", "validate_Q", "span", ("self_ms",)),
    ("reconstruct", "build_fan_config", "span", ("calls", "self_ms")),
    ("reconstruct", "forward_Q", "span", ("self_ms",)),
    ("reconstruct", "reconstruct_N", "span", ("self_ms",)),
    ("reconstruct", "hop_words", "span", ("calls",)),
    ("reconstruct", "anchor_word", "span", ("calls",)),
    ("serialize", "load_config", "span", ("calls", "self_ms")),
    ("serialize", "load_int_matrix", "span", ("self_ms",)),
    ("serialize", "dumps", "span", ("self_ms",)),
    ("cli", "main", "span", ("calls", "self_ms")),
]

# measured from arguments or results at a layer boundary
EXTRA = [
    "words.peak_word_len",  # most syllables in a FreeWord product
    "groupring.peak_terms",  # most terms in a GroupRingElt sum
    "cocycles.pl_cocycle.peak_entry_len",  # most syllables in a pl_cocycle entry
    "monodromy.rho.letters",  # letters (sum of |exponent|) of the words given to rho
    "groupoid.orient_per_chi",  # orient calls inside chi_evaluate per chi_evaluate call
    "cli.import_ms",  # `import braidmono.cli` in a fresh interpreter, minus a bare one
]


def metric_base(module: str, path: str) -> str:
    return f"{module}.{path.replace('.__', '.').replace('__', '')}"


def metric_names() -> list:
    names = []
    for module, path, _, stats in TARGETS:
        names += [f"{metric_base(module, path)}.{s}" for s in stats]
    names += EXTRA
    names += [f"{m}.self_share" for m in MODULES]
    names.append("trace.overhead_ratio")
    return names


def _resolve(module, path):
    owner = module
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def _braidmono_modules():
    return {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "braidmono" or name.startswith("braidmono."))
    }


class Tracer:
    OP = 0  # span name id of the benchmark's own per-op root span

    def __init__(self):
        self.names = ["op"] + [metric_base(m, p) for m, p, _, _ in TARGETS]
        self.module_of = [None] + [m for m, _, _, _ in TARGETS]
        self.name_id = array("H")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counts = [0] * len(self.names)
        self.peaks = {"words.peak_word_len": 0, "groupring.peak_terms": 0,
                      "cocycles.pl_cocycle.peak_entry_len": 0}
        self.rho_letters = 0
        self._patches = []
        self._snapshot = None

    # --- spans ---------------------------------------------------------

    def _open(self, fid):
        sid = len(self.start)
        self.name_id.append(fid)
        self.parent.append(self.stack[-1])
        self.op_id.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid, t0, t1):
        self.start[sid] = t0
        self.end[sid] = t1
        self.stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as op op_id inside a root span."""
        self.current_op = op_id
        sid = self._open(self.OP)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, t0, time.perf_counter())

    def _span_wrapper(self, fid, fn, post):
        perf = time.perf_counter
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            sid = open_(fid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid, t0, perf())
            if post is not None:
                post(args, out)
            return out

        return wrapper

    def _count_wrapper(self, fid, fn, post):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[fid] += 1
            out = fn(*args, **kwargs)
            if post is not None:
                post(args, out)
            return out

        return wrapper

    def _post(self, base):
        peaks = self.peaks
        if base == "words.FreeWord.mul":
            def post(args, out):
                if len(out.letters) > peaks["words.peak_word_len"]:
                    peaks["words.peak_word_len"] = len(out.letters)
        elif base == "groupring.GroupRingElt.add":
            def post(args, out):
                if len(out.terms) > peaks["groupring.peak_terms"]:
                    peaks["groupring.peak_terms"] = len(out.terms)
        elif base == "cocycles.pl_cocycle":
            def post(args, out):
                n = max(len(s.letters) for s in out.entries)
                if n > peaks["cocycles.pl_cocycle.peak_entry_len"]:
                    peaks["cocycles.pl_cocycle.peak_entry_len"] = n
        elif base == "monodromy.rho":
            def post(args, out):
                self.rho_letters += sum(abs(e) for _, e in args[1].letters)
        else:
            post = None
        return post

    # --- install / uninstall -------------------------------------------

    def install(self):
        for m in MODULES:
            importlib.import_module(f"braidmono.{m}")
        mods = _braidmono_modules()
        self._snapshot = {
            name: dict(vars(mod)) for name, mod in mods.items()
        }
        originals = {}
        for fid, (module, path, kind, _) in enumerate(TARGETS, start=1):
            owner, attr = _resolve(mods[f"braidmono.{module}"], path)
            fn = vars(owner)[attr]
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapped = make(fid, fn, self._post(self.names[fid]))
            originals[id(fn)] = fn
            if isinstance(owner, type):
                self._snapshot.setdefault(owner, dict(vars(owner)))
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        for name, mod in mods.items():
            for key, value in vars(mod).items():
                if id(value) in originals and originals[id(value)] is value:
                    raise AssertionError(f"{name}.{key} still holds an unwrapped reference")
            for value in vars(mod).values():
                if isinstance(value, type):
                    for key, attr in vars(value).items():
                        if id(attr) in originals and originals[id(attr)] is attr:
                            raise AssertionError(
                                f"{value.__name__}.{key} still holds an unwrapped reference"
                            )

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        for key, before in self._snapshot.items():
            after = vars(key) if isinstance(key, type) else vars(sys.modules[key])
            if set(after) != set(before) or any(after[k] is not v for k, v in before.items()):
                raise AssertionError(f"uninstall did not restore {key}")
        self._snapshot = None

    # --- results -------------------------------------------------------

    def summarize(self, op_class):
        """Per-function calls and self time, and module self time overall
        and per op class (op_class maps op id -> class label)."""
        n_names = len(self.names)
        calls = list(self.counts)
        self_s = [0.0] * n_names
        child = [0.0] * len(self.start)
        inside_chi = bytearray(len(self.start))
        chi = self.names.index("groupoid.chi_evaluate")
        orient = self.names.index("geometry.orient")
        orient_in_chi = 0
        modules = {m: 0.0 for m in MODULES}
        by_class = {}
        total = 0.0
        for sid in range(len(self.start) - 1, -1, -1):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur
            own = dur - child[sid]
            fid = self.name_id[sid]
            calls[fid] += 1
            self_s[fid] += own
            if fid == self.OP:
                total += dur
            else:
                modules[self.module_of[fid]] += own
            for c in (op_class[self.op_id[sid]], "all"):
                shares = by_class.setdefault(c, {"total": 0.0})
                if fid == self.OP:
                    shares["total"] += dur
                else:
                    for key in (self.module_of[fid], self.names[fid]):
                        shares[key] = shares.get(key, 0.0) + own
        for sid in range(len(self.start)):
            p = self.parent[sid]
            inside_chi[sid] = self.name_id[sid] == chi or (p >= 0 and inside_chi[p])
            if self.name_id[sid] == orient and inside_chi[sid]:
                orient_in_chi += 1
        return {
            "calls": dict(zip(self.names, calls)),
            "self_ms": {n: 1000 * s for n, s in zip(self.names, self_s)},
            "total_s": total,
            "module_s": modules,
            # self-time shares per op class and over all ops ("all"):
            # modules, and functions above 1 %
            "class_shares": {
                c: {k: v / d["total"] for k, v in d.items()
                    if k != "total" and d["total"] and (k in modules or v > 0.01 * d["total"])}
                for c, d in by_class.items()
            },
            "orient_in_chi": orient_in_chi,
        }

    def write(self, path):
        """Spans as one JSON header line followed by the raw columns."""
        cols = [self.name_id, self.parent, self.op_id, self.start, self.end]
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "columns": [f"{n}:{c.typecode}" for n, c in
                                  zip(("name", "parent", "op", "start", "end"), cols)]}
            fh.write(json.dumps(header).encode() + b"\n")
            for c in cols:
                c.tofile(fh)

    def metrics(self, summary, passes):
        """Layer metrics of a run of `passes` ladder passes: calls, self
        times and rho letters per pass; peaks, ratios and shares as they are."""
        out = {}
        for module, path, _, stats in TARGETS:
            base = metric_base(module, path)
            for s in stats:
                out[f"{base}.{s}"] = summary[s][base] / passes
        out.update(self.peaks)
        out["monodromy.rho.letters"] = self.rho_letters / passes
        chi_calls = summary["calls"]["groupoid.chi_evaluate"]
        out["groupoid.orient_per_chi"] = summary["orient_in_chi"] / chi_calls if chi_calls else 0.0
        total = summary["total_s"]
        for m in MODULES:
            out[f"{m}.self_share"] = summary["module_s"][m] / total if total else 0.0
        return out
