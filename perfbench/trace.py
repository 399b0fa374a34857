"""Span tracing of chemtext's layers from outside the package.

Each traced function is replaced, in every ``chemtext.*`` module namespace
that holds it (and on its class, for methods), by a wrapper that records a
span: name, start, end, parent span and whether it returned. Spans stay in
memory until :meth:`Tracer.dump`. Nothing under ``src/`` is modified; the
original functions are put back by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# layer -> (module, attribute) of the public functions traced; "Class.method"
# names a method.
LAYERS = {
    "cli": [
        ("chemtext.cli", "main"),
        ("chemtext.cli", "cmd_evaluate"),
        ("chemtext.cli", "cmd_canonicalize"),
        ("chemtext.cli", "cmd_build_dataset"),
    ],
    "harness": [
        ("chemtext.harness", "eval_pairs"),
        ("chemtext.harness", "eval_text2mol"),
        ("chemtext.harness", "eval_forward"),
        ("chemtext.harness", "eval_retro"),
        ("chemtext.harness", "eval_mol2text"),
        ("chemtext.harness", "eval_para2actions"),
        ("chemtext.harness", "report_to_json"),
        ("chemtext.harness", "LookupOracle.__init__"),
        ("chemtext.harness", "LookupOracle.predict_product"),
    ],
    "smiles": [
        ("chemtext.smiles.tokenize", "tokenize"),
        ("chemtext.smiles.parse", "parse_smiles"),
        ("chemtext.smiles.valence", "validate"),
        ("chemtext.smiles.canon", "canonicalize"),
        ("chemtext.smiles.canon", "canonical_smiles"),
    ],
    "fingerprints": [
        ("chemtext.fingerprints", "morgan_fingerprint"),
        ("chemtext.fingerprints", "path_fingerprint"),
        ("chemtext.fingerprints", "key_fingerprint"),
        ("chemtext.fingerprints", "tanimoto"),
    ],
    "textmetrics": [
        ("chemtext.textmetrics", "word_tokenize"),
        ("chemtext.textmetrics", "char_tokenize"),
        ("chemtext.textmetrics", "bleu"),
        ("chemtext.textmetrics", "rouge_n"),
        ("chemtext.textmetrics", "rouge_l"),
        ("chemtext.textmetrics", "meteor_lite"),
        ("chemtext.textmetrics", "levenshtein"),
    ],
    "dataset": [
        ("chemtext.dataset", "read_records"),
        ("chemtext.dataset", "equal_mix"),
        ("chemtext.dataset", "write_records"),
    ],
}


class Tracer:
    """Records spans for calls into the functions listed in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ok: list[bool] = []
        self.parsed: list = []  # molecules returned by parse_smiles, in call order
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, ok, stack = (
            self.names, self.starts, self.ends, self.parents, self.ok, self._stack
        )
        parsed = self.parsed if name == "smiles.parse_smiles" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            ok.append(False)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                ok[sid] = True
                if parsed is not None:
                    parsed.append(result)
                return result
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "chemtext" or n.startswith("chemtext.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[method]
                    self._set(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- derived figures ------------------------------------------------------

    def calls(self) -> Counter:
        return Counter(self.names)

    def total_ns(self) -> Counter:
        out: Counter = Counter()
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name] += end - start
        return out

    def returned(self) -> Counter:
        return Counter(name for name, ok in zip(self.names, self.ok) if ok)

    def self_ns_by_layer(self) -> Counter:
        """Per layer: span time minus the time of each span's direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        out: Counter = Counter()
        for name, t in zip(self.names, own):
            out[name.split(".", 1)[0]] += t
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "returned"],
                    "spans": list(zip(self.names, self.starts, self.ends, self.parents, self.ok)),
                },
                fp,
            )
