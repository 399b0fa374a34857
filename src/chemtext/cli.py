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
from typing import IO, TYPE_CHECKING, Callable, Sequence, TypeVar

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
    MORGAN_MAX_RADIUS,
    SCHEMES,
    FingerprintConfig,
    FingerprintError,
    fingerprint,
    tanimoto,
)
from chemtext.harness import PredictionPair, eval_pairs, report_to_json

if TYPE_CHECKING:
    import numpy as np

    from chemtext.merge import MergeParams
    from chemtext.molecule_tasks import LookupOracle

_T = TypeVar("_T")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_within(minimum: int | None, maximum: int | None = None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        digits = text.removeprefix("-")  # int() would also read "1_024", " 1024 " and "١٠٢٤"
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(text)
        value = int(text)
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value: ..."
    return parse


_positive_int = _int_within(1)
_radius = _int_within(0, MORGAN_MAX_RADIUS)
_any_int = _int_within(None)

# per flag (argparse dest) that only some choices of an option read: that
# option, those choices and the FingerprintConfig field it sets (None for
# --oracle); with another choice it is a usage error, checked in this order
_READ_BY = {
    "oracle": ("task", ("retro",), None),
    "fp_bits": ("task", ("text2mol",), "nbits"),
    "fp_radius": ("task", ("text2mol",), "radius"),
    "bits": ("scheme", ("morgan", "path"), "nbits"),
    "radius": ("scheme", ("morgan",), "radius"),
    "max_len": ("scheme", ("path",), "path_max_len"),
    "key_table": ("scheme", ("keys",), "key_table"),
}


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
    build.add_argument("--seed", type=_any_int, required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--quiet", action="store_true")
    build.set_defaults(func=cmd_build_dataset)

    ev = sub.add_parser("evaluate", help="score a predictions JSONL file")
    ev.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--oracle", help="forward oracle spec, e.g. lookup:PATH")
    ev.add_argument("--fp-bits", type=_positive_int, help="text2mol only")
    ev.add_argument("--fp-radius", type=_radius, help="text2mol only")
    ev.add_argument("--quiet", action="store_true")
    ev.set_defaults(func=cmd_evaluate)

    canon = sub.add_parser("canonicalize", help="canonical SMILES per stdin line")
    canon.set_defaults(func=cmd_canonicalize)

    fp = sub.add_parser("fingerprint", help="set-bit indices per stdin line")
    fp.add_argument("--scheme", required=True, choices=SCHEMES)
    fp.add_argument("--key-table", help="custom key table file (keys scheme)")
    fp.set_defaults(func=cmd_fingerprint)

    sim = sub.add_parser("similarity", help="Tanimoto between two SMILES")
    sim.add_argument("smiles_a")
    sim.add_argument("smiles_b")
    sim.add_argument("--scheme", default="morgan", choices=SCHEMES)
    sim.set_defaults(func=cmd_similarity)
    for cmd in (fp, sim):  # unset flags keep FingerprintConfig's defaults
        cmd.add_argument("--bits", type=_positive_int)
        cmd.add_argument("--radius", type=_radius)
        cmd.add_argument("--max-len", type=_positive_int)

    demo = sub.add_parser("merge-demo", help="cross-attention merge demo")
    demo.add_argument("--base", required=True, help="base-domain matrix file")
    demo.add_argument("--adapt", required=True, help="adaptation-domain matrix file")
    demo.add_argument("--params", required=True, help="JSON parameter file")
    demo.add_argument("--grad-epsilon", type=float, default=1e-5)
    demo.set_defaults(func=cmd_merge_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:  # parse_args raises only _UsageError, or SystemExit for -h
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ChemtextError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


# -- subcommands ----------------------------------------------------------------


def _read_file(path: str, load: Callable[[IO[str]], _T]) -> _T:
    """``load`` of the UTF-8 file at ``path``; a byte that is not UTF-8, or
    bad data (a ``ChemtextError`` or ``ValueError``), raises ``RecordError``
    led by the path."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return load(fp)
        except UnicodeDecodeError as exc:
            raise RecordError(
                f"{path}: bad UTF-8: {exc.reason} 0x{exc.object[exc.start]:02x}"
            ) from None
        except (ChemtextError, ValueError) as exc:
            raise RecordError(f"{path}: {exc}") from None


def _load_json(fp: IO[str]) -> object:
    """``json.load``; bad JSON, or JSON nested too deeply to decode, raises
    ``RecordError``."""
    try:
        return json.load(fp)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise RecordError(f"bad JSON: {exc}") from None


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
            records = read_records(fp, path)
        if not records:
            raise RecordError(f"{path}: empty stream for task {kind.value}")
        for record in records:
            if record.task is not kind:
                raise RecordError(
                    f"{path}: stream declared {kind.value} but holds {record.task.value}"
                )
        streams[kind] = records
    mixed = equal_mix(streams, per_task=args.per_task, seed=args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
        write_records(fp, mixed)
    for task in TaskKind:  # equal_mix gives each task exactly per_task records
        if task in streams:
            print(f"{task.value}\t{args.per_task}")
    if not args.quiet:
        print(f"wrote {len(mixed)} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _prediction_pair(where: str, obj: dict, expected: TaskKind) -> PredictionPair:
    missing = [k for k in ("id", "task", "prediction", "reference") if k not in obj]
    if missing:
        raise RecordError(f"{where}: missing fields {missing}")
    try:
        task = TaskKind(obj["task"])
    except ValueError:
        raise RecordError(f"{where}: unknown task {obj['task']!r}") from None
    if task is not expected:
        raise RecordError(f"{where}: expected only {expected.value} pairs, found {task.value}")
    not_strings = [k for k in ("id", "prediction", "reference") if not isinstance(obj[k], str)]
    if not_strings:
        raise RecordError(f"{where}: fields {not_strings} must be strings")
    return PredictionPair(
        task=task, prediction=obj["prediction"], reference=obj["reference"], id=obj["id"]
    )


def _load_oracle(spec: str) -> LookupOracle:
    from chemtext.molecule_tasks import LookupOracle

    scheme, sep, path = spec.partition(":")
    if not sep or scheme != "lookup":
        raise _UsageError(f"argument --oracle: unsupported spec {spec!r}; expected lookup:PATH")
    entries = []
    with open(path, "r", encoding="utf-8") as fp:
        for where, obj in read_jsonl(fp, path):
            if not (isinstance(obj.get("precursors"), str) and isinstance(obj.get("product"), str)):
                raise RecordError(f"{where}: oracle entries need string precursors and product")
            entries.append((where, obj["precursors"], obj["product"]))
    if not entries:
        raise RecordError(f"{path}: oracle file holds no entries")
    return LookupOracle(entries)


def cmd_evaluate(args) -> int:
    task = TaskKind(args.task)
    if task is TaskKind.RETRO and not args.oracle:
        raise _UsageError("argument --oracle: --task retro needs it, e.g. lookup:PATH")
    config = _fingerprint_config(args)
    oracle = _load_oracle(args.oracle) if args.oracle else None
    with open(args.predictions, "r", encoding="utf-8") as fp:
        pairs = [
            _prediction_pair(where, obj, task) for where, obj in read_jsonl(fp, args.predictions)
        ]
    if not pairs:
        raise RecordError(f"{args.predictions}: predictions file holds no pairs")
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
    from chemtext.smiles import CanonError, LexError, ParseError, canonical_smiles

    return _each_stdin_line(canonical_smiles, (LexError, ParseError, CanonError))


def _fingerprint_config(args) -> FingerprintConfig:
    """The config of the fingerprint flags given; a ``_READ_BY`` flag the
    command would not read is a usage error, raised before any file is read."""
    given = {}
    for dest, (option, choices, field) in _READ_BY.items():
        value = getattr(args, dest, None)  # each command has only some of them
        if value is None:
            continue
        if getattr(args, option) not in choices:
            raise _UsageError(
                f"argument --{dest.replace('_', '-')}: only --{option} "
                f"{' or '.join(choices)} reads it, not {getattr(args, option)}"
            )
        if field is not None:
            given[field] = value
    if "key_table" in given:
        from chemtext.fingerprints.keys import load_key_table

        given["key_table"] = _read_file(given["key_table"], load_key_table)
    return FingerprintConfig(**given)


def cmd_fingerprint(args) -> int:
    from chemtext.smiles import LexError, ParseError, parse_smiles

    config = _fingerprint_config(args)

    def set_bits(smiles: str) -> str:
        fp = fingerprint(parse_smiles(smiles), args.scheme, config)
        return " ".join(str(b) for b in sorted(fp.bits))

    return _each_stdin_line(set_bits, (LexError, ParseError, FingerprintError))


def cmd_similarity(args) -> int:
    from chemtext.smiles import LexError, ParseError, parse_smiles

    config = _fingerprint_config(args)
    fps = []
    for name in ("smiles_a", "smiles_b"):
        smiles = getattr(args, name)
        try:
            fps.append(fingerprint(parse_smiles(smiles), args.scheme, config))
        except (LexError, ParseError, FingerprintError) as err:
            raise ChemtextError(f"{name} {smiles!r}: {err}") from None
    print(f"{tanimoto(*fps):.6f}")
    return EXIT_OK


def cmd_merge_demo(args) -> int:
    from chemtext.merge import OPS, check_grad_epsilon, grad_check, load_matrix, save_matrix

    try:
        check_grad_epsilon(args.grad_epsilon)
    except ValueError as err:
        raise _UsageError(f"argument --grad-epsilon: {err}") from None
    h_t = _read_file(args.base, load_matrix)
    h_m = _read_file(args.adapt, load_matrix)
    params, op_id = _read_file(
        args.params, lambda fp: _params_from_spec(_load_json(fp), h_t.shape[1], h_m.shape[1])
    )
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


_PARAM_FIELDS = ("d", "depth", "combine", "seed", "w_q", "w_k", "w_v", "w_c")


def _params_from_spec(spec, h_t_width: int, h_m_width: int) -> tuple[MergeParams, str]:
    """The params of ``spec`` and the op they run on inputs of these widths."""
    from chemtext.merge import (
        MAX_GRAD_CHECK_BLOCKS,
        CombineMode,
        MergeParams,
        grad_check_blocks,
        random_params,
        selected_op,
    )

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
    # a depth below 1 is MergeParams' error, after random_params allocates
    blocks = grad_check_blocks(h_t_width, h_m_width, d, max(depth, 1), combine)
    if blocks > MAX_GRAD_CHECK_BLOCKS:
        raise RecordError(
            f"params fields 'd' {d} and 'depth' {depth} make the gradient check run {blocks} "
            f"attention blocks on these inputs; the most is {MAX_GRAD_CHECK_BLOCKS}"
        )
    seed = _spec_int(spec, "seed") if "seed" in spec else None
    given = [name for name in ("w_q", "w_k", "w_v", "w_c") if name in spec]
    if not given:
        if seed is None:
            raise RecordError("params file needs either w_q/w_k/w_v or a seed")
        if seed < 0:
            raise RecordError(f"params field 'seed' must be at least 0, got {seed}")
        params = random_params(
            h_t=h_t_width, h_m=h_m_width, d=d, seed=seed, depth=depth, combine=combine
        )
    else:
        missing = [name for name in ("w_q", "w_k", "w_v") if name not in spec]
        if missing:
            raise RecordError(
                f"params file gives {given} but not {missing}; give all of w_q/w_k/w_v"
            )
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
        if seed is not None:
            raise RecordError("params field 'seed' is read only when w_q/w_k/w_v are not given")
    unknown = [name for name in spec if name not in _PARAM_FIELDS]
    if unknown:
        raise RecordError(
            f"params field {unknown[0]!r} is unknown; the fields are {', '.join(_PARAM_FIELDS)}"
        )
    return params, selected_op(params, h_t_width, h_m_width)


if __name__ == "__main__":
    sys.exit(main())
