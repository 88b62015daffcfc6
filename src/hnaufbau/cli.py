"""Command-line front end.

Subcommands: spectrum | observables | skin | hcb-compare | verify; each
accepts only the flags it reads. Each key=value line of a --config file is
read as the flag --key=value (-k=value for a one-letter key) ahead of the
command line's own flags, which win.
CSV output starts with '#'-prefixed key=value parameter lines and carries
complex values as separate _re/_im columns; JSON mirrors the same payload,
with null where CSV writes nan. Every command hands the writer its table as
columns. Every cell is str of its value, so floats keep full repr
precision. A numpy column is formatted once per distinct bit pattern and
gathered back with one index, so the repeated many-body energies of a
spectrum cost one str each; any other column is formatted value by value.
The rows are joined in C. The output is opened only once its whole text is
built, so a failure while formatting leaves no file. A spectrum row still
costs one occupation_string call, on a bytes row.
Nothing time- or host-dependent is ever written, so identical inputs give
byte-identical files. Everything runs serially; --workers, on observables
only, is accepted for old command lines and has no effect. The commands
read a state straight off the spectrum arrays (spec.occupations[r],
spec.energies[r]); no per-state record is built.

Exit codes: 0 success, 1 verification/computation failure, 2 usage error,
which includes an --out that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import verify as verify_mod
from .aufbau import STATISTICS, _capped_dim, build_spectrum, occupation_strings
from .fock import MAX_FOCK_CELLS, eigenstate_from_config
from .hardcore import delta_E_scan, im_delta_closed_form
from .lattice import HNParams, hardcore_image, single_particle_levels
from .observables import (
    correlation_matrix,
    density_from_fock,
    momentum_distribution,
    skin_metrics,
)

__all__ = ["main", "read_table"]


class UsageError(ValueError):
    pass


def _comma_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _build_parser():
    """The parser. Each option's flag is --<dest>, or -<dest> for one letter."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("-t", type=float, default=1.0)
    run.add_argument("-g", type=float, default=0.5)
    run.add_argument("--out", default=None)
    run.add_argument("--config", default=None, help="key=value file, '#' comments")
    table = argparse.ArgumentParser(add_help=False, parents=[run])
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    chain = argparse.ArgumentParser(add_help=False, parents=[table])
    chain.add_argument("-L", type=int, default=10)
    chain.add_argument("-N", type=int, default=5)
    chain.add_argument("--bc", default="pbc", help="pbc | obc | twist=<radians>")
    chain.add_argument("--stats", choices=STATISTICS, default="fermion")
    chain.add_argument("--tol", type=float, default=None, help="degeneracy tie tolerance")
    ranks = argparse.ArgumentParser(add_help=False, parents=[chain])
    ranks.add_argument("--ranks", default="lowest8", help="comma list, 'all', or 'lowest8'")
    parser = argparse.ArgumentParser(
        prog="hnaufbau",
        description="Many-body spectra of the nonreciprocal chain by the generalized Aufbau rule",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[chain], help="full many-body spectrum")
    p_obs = sub.add_parser("observables", parents=[ranks], help="n_j/n_k profiles per eigenstate")
    p_obs.add_argument("--workers", type=int, default=1, help="accepted, no effect")
    sub.add_parser("skin", parents=[ranks], help="localization metrics per eigenstate")
    p_hcb = sub.add_parser("hcb-compare", parents=[table], help="fermion vs hard-core gap scan")
    p_hcb.add_argument("--lengths", default="160:480:16", help="comma list or start:stop:step")
    p_hcb.add_argument("--filling", type=float, default=0.5)
    p_ver = sub.add_parser("verify", parents=[run], help="run invariant suites")
    p_ver.add_argument(
        "--suite", action="extend", type=_comma_list, default=None,
        help=f"comma list of suites, repeatable; from {', '.join(verify_mod.SUITES)}",
    )
    return parser


def _config_tokens(path):
    """The flags a key=value config file stands for, in file order: --key=value,
    or -k=value for a one-letter key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if "config".startswith(key):  # argparse expands any prefix of it to --config
            raise UsageError(f"{path}:{lineno}: a config file cannot set {key!r}")
        tokens.append(f"{'-' if len(key) == 1 else '--'}{key}={val}")
    return tokens


def _parse_args(argv):
    """Parse argv. With --config, the file's flags go right after the
    subcommand and argv is parsed again, so argparse checks a file value
    exactly as it checks the flag, and the command line's flags, coming
    later, win. A list flag given on the command line replaces the file's
    list instead of extending it."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    given_lists = {key: val for key, val in vars(args).items() if isinstance(val, list)}
    at = argv.index(args.command) + 1
    args = parser.parse_args(argv[:at] + _config_tokens(args.config) + argv[at:])
    vars(args).update(given_lists)
    return args


def _parse_bc(bc):
    if bc == "pbc":
        return "periodic", 0.0
    if bc == "obc":
        return "open", 0.0
    if bc.startswith("twist="):
        try:
            return "twisted", float(bc.split("=", 1)[1])
        except ValueError:
            raise UsageError(f"bad twist angle in --bc {bc!r}") from None
    raise UsageError(f"--bc must be pbc, obc, or twist=<radians>, got {bc!r}")


def _json_value(value):
    """value with every non-finite float, at any depth of dicts and lists,
    replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_value(val) for key, val in value.items()}
    if isinstance(value, list):
        return [_json_value(val) for val in value]
    return value


def _column_text(col):
    """str of each value of col, in order. A numpy column is keyed on its
    raw bits (a float column viewed as integers, so -0.0 and 0.0, and NaN
    payloads, stay apart), each distinct key is formatted once, and the
    texts are gathered back by the inverse index."""
    if not isinstance(col, np.ndarray):
        return map(str, col)
    keys = col.view(f"i{col.itemsize}") if col.dtype.kind == "f" else col
    uniq, inverse = np.unique(keys, return_inverse=True)
    texts = np.array(list(map(str, uniq.view(col.dtype).tolist())), dtype=object)
    return texts[inverse]


def _csv_text(header, columns, data, metrics):
    """The CSV text: the '#' key=value lines, one '# metrics rank=<key>'
    line per metrics entry (k=v!r pairs in insertion order), the column
    names, then one line per row. Its row lines are freed on return, before
    the text is written."""
    lines = [f"# {k}={v}" for k, v in header.items()]
    for key, met in (metrics or {}).items():
        pairs = " ".join(f"{k}={v!r}" for k, v in met.items())
        lines.append(f"# metrics rank={key} {pairs}")
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*map(_column_text, data))))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _emit(args, header, columns, data, metrics=None):
    """Write the table as CSV or JSON. data holds one column per entry (a
    list or a range of Python values, or a 1-D numpy array), all of one
    length; row r is the r-th value of each. metrics maps a rank key
    to named values, written as '# metrics' lines or a JSON object.
    Undefined is nan in CSV, null in JSON."""
    if args.format == "json":
        lists = (col.tolist() if isinstance(col, np.ndarray) else list(col) for col in data)
        rows = list(zip(*map(_json_value, lists)))
        payload = {"params": _json_value(header), "columns": list(columns), "rows": rows}
        if metrics is not None:
            payload["metrics"] = _json_value(metrics)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _csv_text(header, columns, data, metrics)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _write(path, text):
    """Write text to the file at path; a file that cannot be written is a
    usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def read_table(path):
    """Parse a CSV written by _emit: ('#' key=value header, columns, rows
    as lists of strings). The inverse of the writer, for round-trip tests."""
    header = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    header[key.strip()] = val.strip()
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows


def _spectrum_for(args, fock=False):
    """The chain and its sector's spectrum; with fock, a sector too large
    for a Fock basis is refused before its spectrum is built."""
    boundary, twist = _parse_bc(args.bc)
    p = HNParams(L=args.L, t=args.t, g=args.g, boundary=boundary, twist=twist)
    levels = single_particle_levels(p)
    if fock:
        _capped_dim(args.L, args.N, args.stats, MAX_FOCK_CELLS)
    spec = build_spectrum(levels, args.stats, args.N, tie_tol=args.tol)
    return p, spec


def _base_header(args, command, p):
    header = {
        "command": command,
        "L": args.L,
        "N": args.N,
        "t": float(args.t),
        "g": float(args.g),
        "bc": args.bc,
        "stats": args.stats,
    }
    image = hardcore_image(p, args.N) if args.stats == "hardcore" else p
    if image is not p:
        header["effective_twist"] = image.phi
    if args.tol is not None:
        header["tie_tol"] = float(args.tol)
    return header


def cmd_spectrum(args) -> int:
    p, spec = _spectrum_for(args)
    header = _base_header(args, "spectrum", p)
    header["states"] = len(spec)
    columns = ["rank", "energy_re", "energy_im", "degeneracy_group", "occupation"]
    data = [
        range(len(spec)),
        spec.energies.real,
        spec.energies.imag,
        spec.groups,
        occupation_strings(spec.occupations),
    ]
    _emit(args, header, columns, data)
    return 0


def _select_ranks(ranks_arg, dim):
    if ranks_arg == "all":
        return list(range(dim))
    if ranks_arg == "lowest8":
        return list(range(min(8, dim)))
    try:
        ranks = [int(part) for part in str(ranks_arg).split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--ranks must be 'all', 'lowest8', or ints, got {ranks_arg!r}") from None
    if not ranks:
        raise UsageError("--ranks selected nothing")
    seen = set()
    for r in ranks:
        if not 0 <= r < dim:
            raise UsageError(f"rank {r} outside 0..{dim - 1}")
        if r in seen:
            raise UsageError(f"rank {r} given twice in --ranks")
        seen.add(r)
    return ranks


def cmd_observables(args) -> int:
    p, spec = _spectrum_for(args, fock=True)
    ranks = _select_ranks(args.ranks, len(spec))
    header = _base_header(args, "observables", p)
    header["ranks"] = ";".join(str(r) for r in ranks)
    columns = ["rank", "kind", "index", "grid", "value"]
    data = rank_col, kind_col, index_col, grid_col, value_col = [[] for _ in columns]
    metrics = {}
    for rank in ranks:
        v = eigenstate_from_config(p, args.stats, spec.occupations[rank])
        nj = density_from_fock(v)
        nk = momentum_distribution(correlation_matrix(v))
        for profile in (nj, nk):
            size = profile.values.size
            rank_col.extend([rank] * size)
            kind_col.extend([profile.kind] * size)
            index_col.extend(range(1, size + 1))
            grid_col.extend(profile.grid.tolist())
            value_col.extend(profile.values.tolist())
        metrics[str(rank)] = asdict(skin_metrics(nj))  # left_fraction, ipr, log_slope
    _emit(args, header, columns, data, metrics)
    return 0


def cmd_skin(args) -> int:
    p, spec = _spectrum_for(args, fock=True)
    ranks = _select_ranks(args.ranks, len(spec))
    header = _base_header(args, "skin", p)
    columns = ["rank", "energy_re", "energy_im", "left_fraction", "ipr", "log_slope"]
    states = (eigenstate_from_config(p, args.stats, spec.occupations[r]) for r in ranks)
    mets = [skin_metrics(density_from_fock(v)) for v in states]
    energies = spec.energies[ranks]
    data = [
        ranks,
        energies.real.tolist(),
        energies.imag.tolist(),
        [met.left_fraction for met in mets],
        [met.ipr for met in mets],
        [met.log_slope for met in mets],
    ]
    _emit(args, header, columns, data)
    return 0


def _parse_lengths(spec_str):
    s = str(spec_str)
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise UsageError(f"--lengths range must be start:stop:step, got {s!r}")
        try:
            start, stop, step = (int(x) for x in parts)
        except ValueError:
            raise UsageError(f"--lengths range must be integers, got {s!r}") from None
        if step <= 0 or stop < start:
            raise UsageError(f"empty --lengths range {s!r}")
        return list(range(start, stop + 1, step))
    try:
        lengths = [int(x) for x in s.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"--lengths must be integers, got {s!r}") from None
    if not lengths:
        raise UsageError("--lengths selected nothing")
    for i, L in enumerate(lengths):
        if L in lengths[:i]:
            raise UsageError(f"length {L} given twice in --lengths")
    return lengths


def cmd_hcb_compare(args) -> int:
    lengths = _parse_lengths(args.lengths)
    g, t, filling = float(args.g), float(args.t), float(args.filling)
    gaps = delta_E_scan(sorted(lengths), filling, g, t)
    header = {
        "command": "hcb-compare",
        "g": g,
        "t": t,
        "filling": filling,
        "lengths": ";".join(str(L) for L in sorted(lengths)),
    }
    columns = [
        "L", "N", "delta_re", "delta_im", "closed_form_im",
        "abs_im_minus_closed", "delta_im_over_100",
    ]
    delta_im = [gap.delta.imag for gap in gaps]
    closed = [im_delta_closed_form(gap.L, gap.N, g, t) for gap in gaps]
    data = [
        [gap.L for gap in gaps],
        [gap.N for gap in gaps],
        [gap.delta.real for gap in gaps],
        delta_im,
        closed,
        [abs(im - c) for im, c in zip(delta_im, closed)],
        [im / 100.0 for im in delta_im],
    ]
    _emit(args, header, columns, data)
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_checks(g=args.g, t=args.t, suites=args.suite)
    table = verify_mod.summary_table(results, g=float(args.g), t=float(args.t))
    if args.out:
        _write(args.out, table + "\n")
    sys.stdout.write(table + "\n")
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "observables": cmd_observables,
    "skin": cmd_skin,
    "hcb-compare": cmd_hcb_compare,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
