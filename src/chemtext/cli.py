"""``chemtext`` command-line interface.

Subcommands:

- ``build-dataset``: equal-mix task JSONL files into one balanced corpus
- ``evaluate``: score a predictions JSONL file for one task
- ``canonicalize``: canonical SMILES for each stdin line
- ``fingerprint``: set-bit indices for each stdin line
- ``similarity``: Tanimoto between two SMILES arguments
- ``merge-demo``: run the cross-attention merge on matrix files and print
  the output plus a gradient-check report

Exit codes are stable: 0 success, 1 usage error, 2 data error, 3 internal
error. Output is line-oriented except for evaluation reports, which are
canonical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from chemtext.dataset import (
    RecordError,
    TaskKind,
    equal_mix,
    read_jsonl,
    read_records,
    write_records,
)
from chemtext.errors import ChemtextError
from chemtext.fingerprints import (
    SCHEMES,
    FingerprintConfig,
    FingerprintError,
    fingerprint,
    load_key_table,
    tanimoto,
)
from chemtext.harness import LookupOracle, PredictionPair, eval_pairs, report_to_json
from chemtext.smiles import CanonError, LexError, ParseError, canonical_smiles, parse_smiles

if TYPE_CHECKING:
    import numpy as np

    from chemtext.merge import MergeParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value: ..."
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chemtext",
        description="Chemistry/text dataset building, SMILES tools and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    build = sub.add_parser("build-dataset", help="equal-mix task files into one corpus")
    build.add_argument(
        "--task-file", action="append", required=True, metavar="KIND=PATH",
        help="task stream as kind=path; repeatable",
    )
    build.add_argument("--per-task", type=_positive_int, required=True)
    build.add_argument("--seed", type=int, required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--quiet", action="store_true")
    build.set_defaults(func=cmd_build_dataset)

    ev = sub.add_parser("evaluate", help="score a predictions JSONL file")
    ev.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--oracle", help="forward oracle spec, e.g. lookup:PATH")
    ev.add_argument("--fp-bits", type=_positive_int, help="text2mol only; default 2048")
    ev.add_argument("--fp-radius", type=_non_negative_int, help="text2mol only; default 2")
    ev.add_argument("--quiet", action="store_true")
    ev.set_defaults(func=cmd_evaluate)

    canon = sub.add_parser("canonicalize", help="canonical SMILES per stdin line")
    canon.set_defaults(func=cmd_canonicalize)

    fp = sub.add_parser("fingerprint", help="set-bit indices per stdin line")
    fp.add_argument("--scheme", required=True, choices=SCHEMES)
    fp.add_argument("--bits", type=_positive_int, default=2048)
    fp.add_argument("--radius", type=_non_negative_int, default=2)
    fp.add_argument("--max-len", type=_positive_int, default=7)
    fp.add_argument("--key-table", help="custom key table file (keys scheme)")
    fp.set_defaults(func=cmd_fingerprint)

    sim = sub.add_parser("similarity", help="Tanimoto between two SMILES")
    sim.add_argument("smiles_a")
    sim.add_argument("smiles_b")
    sim.add_argument("--scheme", default="morgan", choices=SCHEMES)
    sim.add_argument("--bits", type=_positive_int, default=2048)
    sim.add_argument("--radius", type=_non_negative_int, default=2)
    sim.add_argument("--max-len", type=_positive_int, default=7)
    sim.set_defaults(func=cmd_similarity)

    demo = sub.add_parser("merge-demo", help="cross-attention merge demo")
    demo.add_argument("--base", required=True, help="base-domain matrix file")
    demo.add_argument("--adapt", required=True, help="adaptation-domain matrix file")
    demo.add_argument("--params", required=True, help="JSON parameter file")
    demo.add_argument("--grad-epsilon", type=float, default=1e-5)
    demo.set_defaults(func=cmd_merge_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ChemtextError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


# -- subcommands ----------------------------------------------------------------


def cmd_build_dataset(args) -> int:
    paths: dict[TaskKind, str] = {}
    for spec in args.task_file:
        kind_name, sep, path = spec.partition("=")
        if not sep:
            raise _UsageError(f"argument --task-file: needs KIND=PATH, got {spec!r}")
        try:
            kind = TaskKind(kind_name)
        except ValueError:
            raise _UsageError(f"argument --task-file: unknown task kind {kind_name!r}") from None
        if kind in paths:
            raise _UsageError(f"argument --task-file: task kind {kind.value!r} given more than once")
        paths[kind] = path
    streams = {}
    for kind, path in paths.items():
        with open(path, "r", encoding="utf-8") as fp:
            records = read_records(fp)
        for record in records:
            if record.task is not kind:
                raise RecordError(
                    f"{path}: stream declared {kind.value} but holds {record.task.value}"
                )
        streams[kind] = records
    mixed = equal_mix(streams, per_task=args.per_task, seed=args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
        write_records(fp, mixed)
    for task in TaskKind:
        if task in streams:
            count = sum(1 for r in mixed if r.task is task)
            print(f"{task.value}\t{count}")
    if not args.quiet:
        print(f"wrote {len(mixed)} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _prediction_pair(where: str, obj: dict) -> PredictionPair:
    missing = [k for k in ("id", "task", "prediction", "reference") if k not in obj]
    if missing:
        raise RecordError(f"{where}: missing fields {missing}")
    try:
        task = TaskKind(obj["task"])
    except ValueError:
        raise RecordError(f"{where}: unknown task {obj['task']!r}") from None
    not_strings = [k for k in ("id", "prediction", "reference") if not isinstance(obj[k], str)]
    if not_strings:
        raise RecordError(f"{where}: fields {not_strings} must be strings")
    return PredictionPair(
        task=task, prediction=obj["prediction"], reference=obj["reference"], id=obj["id"]
    )


def _load_oracle(spec: str) -> LookupOracle:
    scheme, sep, path = spec.partition(":")
    if not sep or scheme != "lookup":
        raise _UsageError(f"unsupported oracle spec {spec!r}; expected lookup:PATH")
    table: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fp:
        for where, obj in read_jsonl(fp, path):
            if not (isinstance(obj.get("precursors"), str) and isinstance(obj.get("product"), str)):
                raise RecordError(f"{where}: oracle entries need string precursors and product")
            precursors, product = obj["precursors"], obj["product"]
            if precursors in table and not LookupOracle.same_product(table[precursors], product):
                raise RecordError(
                    f"{where}: precursors {precursors!r} have product {product!r} here "
                    f"and {table[precursors]!r} on an earlier line"
                )
            table[precursors] = product
    return LookupOracle(table)


def cmd_evaluate(args) -> int:
    task = TaskKind(args.task)
    if task is TaskKind.RETRO and not args.oracle:
        raise _UsageError("retro evaluation requires --oracle lookup:PATH")
    if task is not TaskKind.RETRO and args.oracle:
        raise _UsageError(f"argument --oracle: only --task retro reads it, not {task.value}")
    for flag, value in (("--fp-bits", args.fp_bits), ("--fp-radius", args.fp_radius)):
        if task is not TaskKind.TEXT2MOL and value is not None:
            raise _UsageError(f"argument {flag}: only --task text2mol reads it, not {task.value}")
    oracle = _load_oracle(args.oracle) if args.oracle else None
    with open(args.predictions, "r", encoding="utf-8") as fp:
        pairs = [_prediction_pair(where, obj) for where, obj in read_jsonl(fp, args.predictions)]
    config = FingerprintConfig(
        radius=2 if args.fp_radius is None else args.fp_radius,
        nbits=2048 if args.fp_bits is None else args.fp_bits,
    )
    report = eval_pairs(pairs, task, oracle=oracle, fp_config=config)
    print(report_to_json(report))
    if not args.quiet:
        print(f"evaluated {report.n_total} pairs", file=sys.stderr)
    return EXIT_OK


def _each_stdin_line(transform: Callable[[str], str], invalid_errors: tuple) -> int:
    """Print ``transform(line)`` for each non-blank stdin line as it is read,
    or ``INVALID <reason>`` when it raises one of ``invalid_errors``. Exits
    with a data error only when there were lines and all were invalid."""
    lines = invalid = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        lines += 1
        try:
            print(transform(line))
        except invalid_errors as err:
            invalid += 1
            print(f"INVALID {err}")
    return EXIT_DATA if lines and invalid == lines else EXIT_OK


def cmd_canonicalize(args) -> int:
    return _each_stdin_line(canonical_smiles, (LexError, ParseError, CanonError))


def cmd_fingerprint(args) -> int:
    if args.key_table and args.scheme != "keys":
        raise _UsageError(f"argument --key-table: only --scheme keys reads it, not {args.scheme}")
    key_table = None
    if args.key_table:
        with open(args.key_table, "r", encoding="utf-8") as fp:
            key_table = load_key_table(fp)
    config = FingerprintConfig(
        radius=args.radius, nbits=args.bits, path_max_len=args.max_len, key_table=key_table
    )

    def set_bits(smiles: str) -> str:
        fp = fingerprint(parse_smiles(smiles), args.scheme, config)
        return " ".join(str(b) for b in sorted(fp.bits))

    return _each_stdin_line(set_bits, (LexError, ParseError, FingerprintError))


def cmd_similarity(args) -> int:
    config = FingerprintConfig(radius=args.radius, nbits=args.bits, path_max_len=args.max_len)
    fp_a, fp_b = (
        fingerprint(parse_smiles(s), args.scheme, config) for s in (args.smiles_a, args.smiles_b)
    )
    print(f"{tanimoto(fp_a, fp_b):.6f}")
    return EXIT_OK


def cmd_merge_demo(args) -> int:
    from chemtext.merge import (
        OPS,
        CombineMode,
        check_grad_epsilon,
        grad_check,
        load_matrix,
        save_matrix,
    )

    try:
        check_grad_epsilon(args.grad_epsilon)
    except ValueError as err:
        raise _UsageError(f"argument --grad-epsilon: {err}") from None
    with open(args.base, "r", encoding="utf-8") as fp:
        h_t = load_matrix(fp)
    with open(args.adapt, "r", encoding="utf-8") as fp:
        h_m = load_matrix(fp)
    with open(args.params, "r", encoding="utf-8") as fp:
        spec = json.load(fp)
    params = _params_from_spec(spec, h_t.shape[1], h_m.shape[1])
    if params.combine is CombineMode.BASE_ONLY:
        op_id = "hierarchical_merge" if params.depth > 1 else "cross_attend"
    else:
        op_id = "bidirectional_merge"
    save_matrix(sys.stdout, OPS[op_id](h_t, h_m, params))
    report = grad_check(op_id, h_t, h_m, params, epsilon=args.grad_epsilon)
    print(
        f"grad_check op={op_id} max_rel_error={report.max_rel_error:.3e} "
        f"params={report.params_checked} epsilon={report.epsilon:g}"
    )
    return EXIT_OK


def _spec_int(spec: dict, name: str, default: int | None = None) -> int:
    """``spec[name]`` as a JSON integer (not a boolean), never coerced."""
    if name not in spec:
        if default is None:
            raise RecordError(f"params file needs {name!r}")
        return default
    value = spec[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordError(f"params field {name!r} must be an integer, got {value!r}")
    return value


def _spec_matrix(spec: dict, name: str) -> np.ndarray:
    import numpy as np

    try:
        return np.array(spec[name], dtype=float)
    except (TypeError, ValueError) as exc:
        raise RecordError(f"params field {name!r} is not a matrix: {exc}") from None


def _params_from_spec(spec, h_t_width: int, h_m_width: int) -> MergeParams:
    from chemtext.merge import CombineMode, MergeParams, random_params

    if not isinstance(spec, dict):
        raise RecordError("params file must hold a JSON object")
    try:
        combine = CombineMode(spec.get("combine", "base_only"))
    except ValueError:
        names = ", ".join(mode.value for mode in CombineMode)
        raise RecordError(f"params field 'combine' must be one of {names}") from None
    depth = _spec_int(spec, "depth", 1)
    d = _spec_int(spec, "d")
    if d < 1:
        raise RecordError(f"params field 'd' must be at least 1, got {d}")
    seed = _spec_int(spec, "seed") if "seed" in spec else None
    given = [name for name in ("w_q", "w_k", "w_v", "w_c") if name in spec]
    if not given:
        if seed is None:
            raise RecordError("params file needs either w_q/w_k/w_v or a seed")
        return random_params(
            h_t=h_t_width, h_m=h_m_width, d=d, seed=seed, depth=depth, combine=combine
        )
    missing = [name for name in ("w_q", "w_k", "w_v") if name not in spec]
    if missing:
        raise RecordError(f"params file gives {given} but not {missing}; give all of w_q/w_k/w_v")
    params = MergeParams(
        w_q=_spec_matrix(spec, "w_q"),
        w_k=_spec_matrix(spec, "w_k"),
        w_v=_spec_matrix(spec, "w_v"),
        depth=depth,
        combine=combine,
        w_c=_spec_matrix(spec, "w_c") if "w_c" in spec else None,
    )
    if params.d != d:
        raise RecordError(f"params field 'd' is {d} but w_q has width {params.d}")
    return params


if __name__ == "__main__":
    sys.exit(main())
