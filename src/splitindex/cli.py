"""Command-line front end.

Subcommands: build, query, bench, sweep, mine-qgrams.
Exit codes: 0 success, 1 usage error, 2 data/build/configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import SWEEP_DIMENSIONS, BenchReport, run_bench, sweep
from .core import build_index
from .datasets import gen_noisy_queries, load_misspellings, load_wordlist
from .errors import SplitIndexError
from .hashing import DEFAULT_HASH, HASH_FUNCTIONS, MIN_LOAD_FACTOR, HashConfig
from .qgrams import POLICIES, format_substitutions, mine_substitutions, save_substitutions
from .storage import load_index, save_index

USAGE_ERROR = 1
DATA_ERROR = 2

_COMPRESS_CHOICES = ("none",) + tuple(sorted(POLICIES))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # data errors, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _BuildFlag(argparse.Action):
    # Stores the value and notes the flag, so that --index can refuse it.
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.build_flags += (self.option_strings[0],)


def _add_build_flags(p: argparse.ArgumentParser) -> None:
    p.set_defaults(build_flags=())
    p.add_argument("--k", type=int, default=1, action=_BuildFlag, help="mismatch budget (default 1)")
    p.add_argument("--hash", default=DEFAULT_HASH, choices=sorted(HASH_FUNCTIONS), action=_BuildFlag,
                   help="hash function id (default %(default)s)")
    p.add_argument("--max-lf", type=float, default=HashConfig().max_load_factor, action=_BuildFlag,
                   help=f"maximum hash table load factor, at least {MIN_LOAD_FACTOR} "
                        "(default %(default)s)")
    p.add_argument("--compress", default="none", choices=_COMPRESS_CHOICES, action=_BuildFlag,
                   help="substitution coding policy (default none)")
    p.add_argument("--limit", type=int, default=100, action=_BuildFlag,
                   help="maximum mined substitution rules (default 100)")


def _add_index_source_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--index", help="load a saved index")
    source.add_argument("--dict", dest="dict_path", metavar="PATH", help="or build one on the fly")


def _add_query_source_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--queries", help="misspellings file (wrong->right lines)")
    source.add_argument("--gen-queries", type=int, metavar="N",
                        help="generate N noisy queries from the dictionary")
    p.add_argument("--seed", type=int, default=1, help="seed for --gen-queries (default 1)")


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reps", type=int, default=1, help="benchmark repetitions (default 1)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", default="json", choices=("json", "tsv"),
                   help="report format (default json)")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitindex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="build an index and save it")
    p.add_argument("--dict", required=True, dest="dict_path", metavar="PATH")
    _add_build_flags(p)
    p.add_argument("--out", required=True, help="output index file")

    p = sub.add_parser("query", help="print matching words, one per line")
    _add_index_source_flags(p)
    _add_build_flags(p)
    p.add_argument("patterns", nargs="+", help="query patterns, as the bytes of the command line")

    p = sub.add_parser("bench", help="time a query workload")
    _add_index_source_flags(p)
    _add_build_flags(p)
    _add_query_source_flags(p)
    _add_report_flags(p)

    p = sub.add_parser("sweep",
                       help="benchmark across a parameter grid")
    p.add_argument("dimension", choices=SWEEP_DIMENSIONS)
    p.add_argument("--grid", required=True,
                   help="comma-separated grid values, e.g. 1,2,3 or crc32,fnv1a")
    p.add_argument("--dict", required=True, dest="dict_path", metavar="PATH")
    _add_build_flags(p)
    _add_query_source_flags(p)
    _add_report_flags(p)

    p = sub.add_parser("mine-qgrams",
                       help="mine a substitution list from a dictionary")
    p.add_argument("--dict", required=True, dest="dict_path", metavar="PATH")
    p.add_argument("--compress", default="mixed", choices=tuple(sorted(POLICIES)))
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--out", help="write '<code> TAB <gram>' lines here instead of stdout")
    return parser


# The build flag that each sweep dimension's grid replaces.
_SWEPT_FLAGS = {"k": "--k", "hash": "--hash", "load_factor": "--max-lf", "compression": "--compress"}


def _check_limit(args, policies) -> None:
    """``--limit`` bounds mined rules, so it needs a coding policy."""
    if "--limit" in args.build_flags and all(p == "none" for p in policies):
        raise SystemExit(_usage(args, "--limit needs a coding policy from --compress"))


def _build_from_args(args):
    _check_limit(args, [args.compress])
    dictionary = load_wordlist(args.dict_path)
    subs = None
    if args.compress != "none":
        subs = mine_substitutions(dictionary, args.compress, args.limit)
    cfg = HashConfig(function_id=args.hash, max_load_factor=args.max_lf)
    index = build_index(dictionary, args.k, hash_config=cfg, substitutions=subs)
    return dictionary, index


def _index_from_args(args):
    """The dictionary (None when loaded) and the index of ``--index`` or
    ``--dict``; a build flag given with ``--index`` is a usage error."""
    if args.index is None:
        return _build_from_args(args)
    if args.build_flags:
        raise SystemExit(_usage(args, f"{args.build_flags[0]} is a build flag and cannot go with --index"))
    return None, load_index(args.index)


def _load_queries(args, dictionary):
    if args.queries is not None:
        return load_misspellings(args.queries)
    if dictionary is None:
        raise SystemExit(_usage(args, "--gen-queries needs --dict"))
    return gen_noisy_queries(dictionary, args.gen_queries, args.seed)


def _usage(args, message) -> int:
    print(f"splitindex {args.command}: error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _reports_text(reports: list[BenchReport], fmt: str) -> str:
    if fmt == "tsv":
        return "\n".join([BenchReport.tsv_header()] + [r.tsv_row() for r in reports])
    if len(reports) == 1:
        return reports[0].to_json()
    return json.dumps([r.to_dict() for r in reports], indent=2)


def _cmd_build(args) -> int:
    _, index = _build_from_args(args)
    save_index(index, args.out)
    print(
        f"indexed {index.source_stats.word_count} words "
        f"({index.source_stats.total_bytes} bytes) with k={index.k}: "
        f"{index.size_bytes()} bytes -> {args.out}"
    )
    return 0


def _cmd_query(args) -> int:
    _, index = _index_from_args(args)
    out = sys.stdout.buffer
    for pattern in args.patterns:
        for word in index.query(os.fsencode(pattern)):
            out.write(word + b"\n")
    out.flush()
    return 0


def _cmd_bench(args) -> int:
    dictionary, index = _index_from_args(args)
    compression = args.compress if args.index is None else "loaded" if index.subs else "none"
    queries = _load_queries(args, dictionary)
    report = run_bench(index, queries, args.reps, compression=compression)
    _emit(_reports_text([report], args.format), args.out)
    return 0


def _cmd_sweep(args) -> int:
    swept = _SWEPT_FLAGS[args.dimension]
    if swept in args.build_flags:
        return _usage(args, f"{swept} is swept by --grid and cannot be given as well")
    raw = [v for v in args.grid.split(",") if v]
    _check_limit(args, raw if args.dimension == "compression" else [args.compress])
    dictionary = load_wordlist(args.dict_path)
    queries = _load_queries(args, dictionary)
    if args.dimension == "k":
        grid = [int(v) for v in raw]
    elif args.dimension == "load_factor":
        grid = [float(v) for v in raw]
    else:
        grid = raw
    cfg = HashConfig(function_id=args.hash, max_load_factor=args.max_lf)
    reports = sweep(
        args.dimension,
        grid,
        dictionary,
        queries,
        k=args.k,
        hash_config=cfg,
        compression=args.compress,
        repetitions=args.reps,
        substitution_limit=args.limit,
    )
    _emit(_reports_text(reports, args.format), args.out)
    return 0


def _cmd_mine(args) -> int:
    dictionary = load_wordlist(args.dict_path)
    subs = mine_substitutions(dictionary, args.compress, args.limit)
    if args.out:
        save_substitutions(subs, args.out)
        print(f"mined {len(subs)} substitutions -> {args.out}")
    else:
        sys.stdout.buffer.write(format_substitutions(subs))
        sys.stdout.buffer.flush()
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "query": _cmd_query,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "mine-qgrams": _cmd_mine,
}


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR
    except (SplitIndexError, OSError, ValueError) as exc:
        print(f"splitindex: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
