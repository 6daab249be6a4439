"""Span tracing for `run.py --trace 1`, applied to moldae from outside.

`Tracer.install()` replaces every public function binding in the moldae
modules (the names callers use, e.g. `genmetrics.canonicalize` as well as
`canon.canonicalize`) and three hot methods with wrappers that record a span:
name, start, end, parent span and op id. A span is named after the
function's home module and qualified name, so calls through every binding
add up under one name. Spans stay in memory until `write()`. The untraced
run never imports this module.

Not wrapped: `elements` (tables plus `implicit_fill`, a leaf called per atom
from everywhere), `cli` (argument parsing; the benchmark calls the stage
entry points), and context-manager functions such as `autodiff.no_grad`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("autodiff", "canon", "checkpoint", "corpus", "fingerprint", "genmetrics", "graph",
           "model", "propeval", "selfies", "smiles", "tokenizer", "training")
METHODS = (("autodiff", "Tensor", "backward"), ("training", "Adam", "step"),
           ("graph", "MolecularGraph", "bond_sum"))

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in start order.
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        self.current_op = -1  # -1 during set-up
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "autodiff.matmul": self._matmul,
            "model.decoder_forward": self._decoder_forward,
            "model.sample_batch": self._sample_batch,
            "model.batch_denoise_loss": self._denoise_loss,
            "checkpoint.load_checkpoint": self._load_checkpoint,
            "smiles.parse_smiles": self._parse_smiles,
            "fingerprint.fingerprint": self._fingerprint,
            "propeval.train_probe": self._train_probe,
            "corpus.sample_corpus": self._sample_corpus,
        }

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        for modname in MODULES:
            module = importlib.import_module(f"moldae.{modname}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("moldae.") or hasattr(fn, "__wrapped__")):
                    continue
                self._patch(module, attr, fn, f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}")
        for modname, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"moldae.{modname}"), cls_name)
            self._patch(cls, attr, vars(cls)[attr], f"{modname}.{cls_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, fn, name: str) -> None:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        hook = self._hooks.get(name)
        if hook is None and owner.__name__ == "moldae.autodiff":
            hook = self._autodiff_out
        setattr(owner, attr, self._wrap(fn, self._name_ids[name], hook))
        self._patches.append((owner, attr, fn))

    def _wrap(self, fn, name_id: int, hook):
        stack, names, starts, ends, parents, ops = (
            self._stack, self.name, self.start, self.end, self.parent, self.op)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, fn, args, kwargs, result)
            return result

        return wrapper

    # --- counters measured where the work happens --------------------------

    @staticmethod
    def _bind(fn, args, kwargs) -> dict:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _parent_name(self, idx: int) -> str:
        p = self.parent[idx]
        return self.names[self.name[p]] if p >= 0 else ""

    def _autodiff_out(self, idx, fn, args, kwargs, result) -> None:
        self.counts["autodiff.out_bytes"] += result.data.nbytes

    def _matmul(self, idx, fn, args, kwargs, result) -> None:
        self._autodiff_out(idx, fn, args, kwargs, result)
        self.counts["matmul.flop"] += 2.0 * result.data.size * args[0].shape[-1]

    def _decoder_forward(self, idx, fn, args, kwargs, result) -> None:
        ids = self._bind(fn, args, kwargs)["ids"]
        positions = int(np.asarray(ids).size)
        self.counts["decoder.positions"] += positions
        if self._parent_name(idx) == "model.sample_batch":
            self.counts["decoder.sampling_positions"] += positions

    def _sample_batch(self, idx, fn, args, kwargs, result) -> None:
        self.counts["sampled_tokens"] += sum(len(row) - 1 for row in result)

    def _denoise_loss(self, idx, fn, args, kwargs, result) -> None:
        mask = np.asarray(self._bind(fn, args, kwargs)["pad_mask"])
        self.counts["pad.positions"] += mask.size
        self.counts["pad.real"] += float(mask.sum())

    def _load_checkpoint(self, idx, fn, args, kwargs, result) -> None:
        self.counts["checkpoint.bytes"] += os.path.getsize(self._bind(fn, args, kwargs)["path"])

    def _parse_smiles(self, idx, fn, args, kwargs, result) -> None:
        self.distinct["parse"].add((self.current_op, self._bind(fn, args, kwargs)["text"]))

    def _fingerprint(self, idx, fn, args, kwargs, result) -> None:
        self.distinct["fingerprint"].add((self.current_op, self._bind(fn, args, kwargs)["graph"]))

    def _sample_corpus(self, idx, fn, args, kwargs, result) -> None:
        self.counts["corpus.returned"] += len(result)

    def _train_probe(self, idx, fn, args, kwargs, result) -> None:
        """Recompute the final gradient norm from the returned Probe."""
        a = self._bind(fn, args, kwargs)
        labels = np.asarray(a["labels"]).reshape(len(a["labels"]), -1).astype(np.float64)
        x = (a["features"] - result.mean) / result.std
        present = ~np.isnan(labels)
        raw = x @ result.weights + result.bias
        pred = 1.0 / (1.0 + np.exp(-raw)) if a["task"] == "classification" else raw
        err = np.where(present, pred - np.where(present, labels, 0.0), 0.0)
        counts = present.sum(axis=0).astype(np.float64)
        gw = x.T @ err / counts + a["lam"] * result.weights
        gb = err.sum(axis=0) / counts
        if math.sqrt(float((gw**2).sum() + (gb**2).sum())) >= a["tol"]:
            self.counts["probe.unconverged"] += 1

    # --- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded (set-up and traced rounds)."""
        n = len(self.start)
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_time, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, fn_name in enumerate(self.names):
            out[f"{fn_name}.calls"] = int(calls[i])
            out[f"{fn_name}.self_s"] = float(self_s[i])

        def calls_of(fn_name: str) -> int:
            return out.get(f"{fn_name}.calls", 0)

        canon_id = self._name_ids.get("canon.canonicalize")
        canon_durs = dur[name == canon_id] if canon_id is not None else dur[:0]
        out["canon.canonicalize.max_ms"] = float(canon_durs.max() * 1e3) if canon_durs.size else 0.0

        out["autodiff.matmul.gflop"] = self.counts["matmul.flop"] / 1e9
        out["autodiff.out_mb"] = self.counts["autodiff.out_bytes"] / 1e6
        out["model.decoder_forward.positions"] = int(self.counts["decoder.positions"])
        out["model.decode_useful_frac"] = _ratio(self.counts["sampled_tokens"],
                                                 self.counts["decoder.sampling_positions"])
        out["training.pad_frac"] = _ratio(self.counts["pad.positions"] - self.counts["pad.real"],
                                          self.counts["pad.positions"])
        out["checkpoint.load_checkpoint.mb"] = self.counts["checkpoint.bytes"] / 1e6
        out["smiles.parse_per_distinct"] = _ratio(calls_of("smiles.parse_smiles"),
                                                  len(self.distinct["parse"]))
        out["fingerprint.per_distinct"] = _ratio(calls_of("fingerprint.fingerprint"),
                                                 len(self.distinct["fingerprint"]))
        out["propeval.train_probe.unconverged"] = int(self.counts["probe.unconverged"])

        decode_id = self._name_ids.get("selfies.decode")
        corpus_id = self._name_ids.get("corpus.sample_corpus")
        under_corpus = 0
        if decode_id is not None and corpus_id is not None:
            decodes = has_parent & (name == decode_id)
            under_corpus = int((name[parent[decodes]] == corpus_id).sum())
        out["corpus.accept_frac"] = _ratio(self.counts["corpus.returned"], under_corpus)
        return out

    def write(self, path: Path, t0: float) -> None:
        """Spans as TSV: name, start and end (ns after t0), parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]}\t{round((self.start[i] - t0) * 1e9)}\t"
                         f"{round((self.end[i] - t0) * 1e9)}\t{self.parent[i]}\t{self.op[i]}\n")


def _ratio(num: float, den: float) -> float:
    """num / den; 0 where the layer did not run on this workload."""
    return float(num) / float(den) if den else 0.0
