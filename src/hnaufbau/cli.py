"""Command-line front end.

Subcommands: spectrum | observables | skin | hcb-compare | verify; each
accepts only the flags it reads. Each key=value line of a --config file is
read as the flag --key=value (-k=value for a one-letter key) ahead of the
command line's own flags, which win.
CSV output starts with '#'-prefixed key=value parameter lines and carries
complex values as separate _re/_im columns; JSON mirrors the same payload,
with null where CSV writes nan. Every command hands the writer its table as
columns. Every cell is str of its value, so floats keep full repr
precision. The writer yields the text in pieces: the header block, then
the rows CHUNK_ROWS (4096) at a time, joined in C, so one chunk's strings
stay small. A numpy column keeps only its sorted distinct bit patterns and
one str of each, which every chunk looks its cells up in, so the repeated
many-body energies of a spectrum cost one str each and no whole-column
table is held; a spectrum's occupation column unpacks its chunk's rows
(spec.occupations(slice(lo, hi))) and formats them, one occupation_string
call per row on a bytes row; the rank column, range(n), is built per block
of 1000 ranks q*1000.. as str(q) plus one of the three-digit texts
"000".."999" (a table made per table written, not at import), one
concatenation a rank; any other column is formatted value by value.
JSON rows are the same cell texts (null for a non-finite float, json.dumps
of a string) spliced into a json.dumps skeleton of the rest of the payload.
An --out file appears whole or not at all: the pieces go to a sibling
<out>.<pid>.part file that replaces it once the last piece is written and
is removed on any failure, so an existing file keeps its bytes. Without
--out the pieces stream to stdout, and a reader that closes the pipe ends
the command quietly.
Nothing time- or host-dependent is ever written, so identical inputs give
byte-identical files. Everything runs serially; --workers, on observables
only, is accepted for old command lines and has no effect. The commands
read a state straight off the spectrum arrays (spec.occupations(r),
spec.energies[r]); no per-state record is built.

Exit codes: 0 success, 1 verification/computation failure or out of memory,
2 usage error, which includes an --out that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import verify as verify_mod
from .aufbau import STATISTICS, build_spectrum, occupation_strings
from .fock import eigenstate_from_config, get_basis
from .hardcore import _scan_size, delta_E_scan, im_delta_closed_form
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


@functools.cache
def _build_parser():
    """The parser, built once per process. Each option's flag is --<dest>,
    or -<dest> for one letter; each subcommand's parser sets its handler
    as the default run."""
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
    p_spec = sub.add_parser("spectrum", parents=[chain], help="full many-body spectrum")
    p_spec.set_defaults(run=cmd_spectrum)
    p_obs = sub.add_parser("observables", parents=[ranks], help="n_j/n_k profiles per eigenstate")
    p_obs.set_defaults(run=cmd_observables)
    p_obs.add_argument("--workers", type=int, default=1, help="accepted, no effect")
    p_skin = sub.add_parser("skin", parents=[ranks], help="localization metrics per eigenstate")
    p_skin.set_defaults(run=cmd_skin)
    p_hcb = sub.add_parser("hcb-compare", parents=[table], help="fermion vs hard-core gap scan")
    p_hcb.set_defaults(run=cmd_hcb_compare)
    p_hcb.add_argument("--lengths", default="160:480:16", help="comma list or start:stop:step")
    p_hcb.add_argument("--filling", type=float, default=0.5)
    p_ver = sub.add_parser("verify", parents=[run], help="run invariant suites")
    p_ver.set_defaults(run=cmd_verify)
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


# rows formatted and written per piece of output
CHUNK_ROWS = 1 << 12


def _json_text(value):
    """The JSON text of one table cell, as json.dumps writes it, with a
    non-finite float as null; a plain float or int skips the encoder."""
    if type(value) is float:
        return repr(value) if math.isfinite(value) else "null"
    if type(value) is int:
        return repr(value)
    return json.dumps(_json_value(value))


def _column_text(col, fmt=str):
    """A function of (lo, hi) giving fmt of the values lo..hi-1 of the 1-D
    numpy column col, as an object array. The column is keyed on its raw
    bits (a float column viewed as integers, so -0.0 and 0.0, and NaN
    payloads, stay apart); only the sorted distinct keys and one text each
    are kept, and a slice finds its texts by one search of its keys."""
    keys = col.view(f"i{col.itemsize}") if col.dtype.kind == "f" else col
    uniq = np.sort(keys)  # np.unique's hash table is slower where few keys repeat
    if uniq.size:
        uniq = uniq[np.r_[True, uniq[1:] != uniq[:-1]]]
    texts = np.array(list(map(fmt, uniq.view(col.dtype).tolist())), dtype=object)
    return lambda lo, hi: texts[np.searchsorted(uniq, keys[lo:hi])]


def _rank_texts(n):
    """A function of (lo, hi) giving str of the values lo..hi-1 of range(n),
    built per block of 1000 values q*1000.. as str(q) + one of the texts
    "000".."999", with one str call per value only in the block q = 0."""
    low3 = [f"{r:03d}" for r in range(1000)]

    def texts(lo, hi):
        hi = min(hi, n)
        out = []
        for q in range(lo // 1000, (hi + 999) // 1000):
            a, b = max(lo - q * 1000, 0), min(hi - q * 1000, 1000)
            if q:
                head = str(q)
                out += [head + tail for tail in low3[a:b]]
            else:
                out += map(str, range(a, b))
        return out

    return texts


def _chunk_texts(col, fmt):
    """A function of (lo, hi) giving fmt of the cells lo..hi-1 of col: a
    numpy column through _column_text, a range(n) through _rank_texts (str
    and _json_text agree on an int), a function of (lo, hi) through the
    values it returns, any other column value by value per slice."""
    if isinstance(col, np.ndarray):
        return _column_text(col, fmt)
    if type(col) is range and col.start == 0 and col.step == 1:
        return _rank_texts(len(col))
    if callable(col):
        return lambda lo, hi: map(fmt, col(lo, hi))
    return lambda lo, hi: map(fmt, col[lo:hi])


def _pieces(fmt, header, columns, data, metrics):
    """The table's text as pieces: the header block, then the rows
    CHUNK_ROWS at a time. CSV: the '#' key=value lines, one '# metrics
    rank=<key>' line per metrics entry (k=v!r pairs in insertion order),
    the column names, then one line per row. JSON: json.dumps(indent=2,
    sort_keys=True) of the params/columns/metrics/rows payload, its rows
    spliced into the skeleton from each cell's _json_text."""
    n = len(data[0])
    if fmt == "json":
        payload = {"params": _json_value(header), "columns": list(columns), "rows": []}
        if metrics is not None:
            payload["metrics"] = _json_value(metrics)
        # "rows" sorts last, so the skeleton ends in its empty list
        yield json.dumps(payload, indent=2, sort_keys=True)[: -len("]\n}")]
        cell, first, between, cell_sep = (
            _json_text, "\n    [\n      ", "\n    ],\n    [\n      ", ",\n      ")
        end = "\n    ]\n  ]\n}\n" if n else "]\n}\n"
    else:
        lines = [f"# {k}={v}" for k, v in header.items()]
        for key, met in (metrics or {}).items():
            pairs = " ".join(f"{k}={v!r}" for k, v in met.items())
            lines.append(f"# metrics rank={key} {pairs}")
        lines.append(",".join(columns))
        yield "\n".join(lines) + "\n"
        cell, first, between, cell_sep = str, "", "\n", ","
        end = "\n" if n else ""
    texts = [_chunk_texts(col, cell) for col in data]
    for lo in range(0, n, CHUNK_ROWS):
        rows = zip(*(chunk(lo, lo + CHUNK_ROWS) for chunk in texts))
        yield (first if lo == 0 else between) + between.join(map(cell_sep.join, rows))
    yield end


def _emit(args, header, columns, data, metrics=None):
    """Write the table as CSV or JSON. data holds one column per entry (a
    list or a range of Python values, a 1-D numpy array, or, past the
    first, a function of (lo, hi) giving the values of rows lo..hi-1), all
    of one length; row r is the r-th value of each. metrics maps a rank
    key to named values, written as '# metrics' lines or a JSON object.
    Undefined is nan in CSV, null in JSON."""
    pieces = _pieces(args.format, header, columns, data, metrics)
    if args.out:
        _write(args.out, pieces)
    else:
        _print(pieces)


def _write(path, pieces):
    """Write the text pieces to the file at path, which appears whole or not
    at all: they go to a sibling part file that replaces path only once the
    last piece is written, and that is removed if anything fails. A target
    that is neither a regular file nor a directory (a device, a FIFO) is
    written in place, since a rename would replace the node itself. The
    part file is <path>.<pid>.part, its name cut to 255 bytes. A file that
    cannot be written is a usage error."""
    try:
        if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
            return
        # the real path: a rename replaces a symlink, not its file
        target = os.fsencode(os.path.realpath(path))
        head, name = os.path.split(target)
        suffix = b".%d.part" % os.getpid()
        part = os.path.join(head, name[: 255 - len(suffix)] + suffix)  # within NAME_MAX
        fd = os.open(part, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
            os.replace(part, target)
        except BaseException:
            os.unlink(part)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _print(pieces):
    """Write the text pieces to stdout as they come. A reader that closes
    the pipe ends the output quietly: the rest, and the flush at exit, go
    to the null device."""
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def read_table(path):
    """Parse a CSV written by _emit: ('#' key=value header, columns, rows
    as lists of strings). Each '# metrics rank=<r> k=v ...' line becomes
    header["metrics"][r] = {k: v}, all as written. The inverse of the
    writer, for round-trip tests."""
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
                if body.startswith("metrics rank="):
                    rank, *pairs = body[len("metrics rank="):].split(" ")
                    header.setdefault("metrics", {})[rank] = dict(
                        pair.split("=", 1) for pair in pairs)
                elif "=" in body:
                    key, val = body.split("=", 1)
                    header[key.strip()] = val.strip()
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows


def _spectrum_for(args, fock=False):
    """The chain and its sector's spectrum; with fock, the Fock basis comes
    first, so a sector too large for one is refused before its spectrum."""
    boundary, twist = _parse_bc(args.bc)
    p = HNParams(L=args.L, t=args.t, g=args.g, boundary=boundary, twist=twist)
    levels = single_particle_levels(p)
    if fock:
        get_basis(args.stats, args.L, args.N)
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
        lambda lo, hi: occupation_strings(spec.occupations(slice(lo, hi))),
    ]
    _emit(args, header, columns, data)
    return 0


def _int_list(text, flag, dim=None):
    """The integers of the comma list text of flag (--ranks, --lengths). A
    UsageError names the first fault: a non-integer entry, an empty list,
    then value by value one outside 0..dim-1 (given dim) or given twice."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        kinds = "integers" if dim is None else "'all', 'lowest8', or ints"
        raise UsageError(f"{flag} must be {kinds}, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} selected nothing")
    noun = flag[2:-1]  # rank, length
    seen = set()
    for value in values:
        if dim is not None and not 0 <= value < dim:
            raise UsageError(f"{noun} {value} outside 0..{dim - 1}")
        if value in seen:
            raise UsageError(f"{noun} {value} given twice in {flag}")
        seen.add(value)
    return values


def _select_ranks(ranks_arg, dim):
    if ranks_arg == "all":
        return list(range(dim))
    if ranks_arg == "lowest8":
        return list(range(min(8, dim)))
    return _int_list(ranks_arg, "--ranks", dim)


def cmd_observables(args) -> int:
    p, spec = _spectrum_for(args, fock=True)
    ranks = _select_ranks(args.ranks, len(spec))
    header = _base_header(args, "observables", p)
    header["ranks"] = ";".join(str(r) for r in ranks)
    columns = ["rank", "kind", "index", "grid", "value"]
    data = rank_col, kind_col, index_col, grid_col, value_col = [[] for _ in columns]
    metrics = {}
    for rank in ranks:
        v = eigenstate_from_config(p, args.stats, spec.occupations(rank))
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
    states = (eigenstate_from_config(p, args.stats, spec.occupations(r)) for r in ranks)
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
    return _int_list(s, "--lengths")


def cmd_hcb_compare(args) -> int:
    lengths = sorted(_parse_lengths(args.lengths))
    g, t, filling = float(args.g), float(args.t), float(args.filling)
    tol = verify_mod.TOLERANCES["closed_form"]
    for L in lengths:  # every length is checked before the first is filled
        _scan_size(L, filling)
    gaps = []
    for L in lengths:  # the first failing length decides the message
        (gap,) = delta_E_scan([L], filling, g, t)
        if abs(gap.E0_hcb.imag) >= tol:
            raise ArithmeticError(
                f"hard-core ground energy has Im = {gap.E0_hcb.imag:.3e}, expected |Im| < {tol}"
            )
        gaps.append(gap)
    header = {
        "command": "hcb-compare",
        "g": g,
        "t": t,
        "filling": filling,
        "lengths": ";".join(str(L) for L in lengths),
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
        _write(args.out, [table + "\n"])
    _print([table + "\n"])
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
