"""Command-line pipelines: convert, train, generate, eval-gen, embed, eval-prop.

Configuration is a flat key=value file overridden by repeated --set flags;
every command echoes its fully resolved configuration for provenance.

Exit codes come from one ordered table in main(); the first row whose
exception classes match wins, and main prints `error: <message>` to stderr:

  3  configuration: ConfigError (bad or unknown config key or value,
     unreadable eval-prop manifest or dataset, make-corpus --n below 1 or
     --max-tokens below 4, a negative --seed), ModelConfigError,
     TrainSettingsError (a setting out of range, e.g. eps not finite and > 0
     or seed < 0); also a usage error (missing or invalid flag), for which
     argparse prints the usage line
  2  I/O and artifacts: OSError (missing or unwritable file or directory),
     CheckpointError (corrupt or truncated checkpoint, a config block or
     a parameter tensor that does not fit ModelConfig, one without a
     vocabulary or whose vocabulary does not fit the model, one without a
     usable meta.length_hist, --resume from one without optimizer state or
     of another model config, vocabulary or training settings),
     VocabularyError (malformed vocabulary, empty training corpus)
  1  domain: TrainingDivergedError, RecursionError, ValueError (every other
     moldae error: bad molecule, grammar or metric input, generate
     --max-len below 2 or --temperature not finite and > 0)
  0  ok; a molecule that cannot be processed (one of propeval.REJECTS) does
     not end a run: convert and embed write it as a
     blank line plus a `<lineno>\t<reason>` row of <output>.rejects and
     return 1 unless --lenient is given; eval-prop drops and counts it

A checkpoint carries its vocabulary and training settings: generate, embed and
eval-prop need only --checkpoint, and train --resume checks the run against it.
Heavy imports happen inside main() so --threads can pin BLAS pools before
numpy loads (required for bit-reproducible runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Input lines `convert` and `embed` hold at once: it bounds their memory on a
# long input. Embeddings are batch-invariant, so it changes no output byte.
PER_LINE_CHUNK = 1024

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


def _parse_kv(text: str, source: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"{source}: expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def load_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    config: dict[str, str] = {}
    if path:
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, value = _parse_kv(line, f"{path}:{lineno}")
            config[key] = value
    for item in overrides or []:
        key, value = _parse_kv(item, "--set")
        config[key] = value
    return config


def echo_config(config: dict[str, str], path: Path) -> None:
    from .checkpoint import write_text

    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, "\n".join(f"{k}={config[k]}" for k in sorted(config)) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moldae", description=__doc__.split("\n")[0])
    parser.add_argument("--threads", type=int, default=1, help="BLAS/OMP thread count (1 = reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between SMILES and SELFIES, line by line")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--direction", choices=("smiles-to-selfies", "selfies-to-smiles"),
                   default="smiles-to-selfies")
    p.add_argument("--lenient", action="store_true", help="exit 0 even with rejected lines")

    p = sub.add_parser("make-corpus", help="write a seeded random molecule corpus (SMILES lines)")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--min-atoms", type=int, default=3)
    p.add_argument("--max-tokens", type=int, default=40)

    p = sub.add_parser("train", help="build vocabulary and run denoising training")
    p.add_argument("--corpus", required=True, help="SELFIES file, one molecule per line")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--resume", help="checkpoint to resume from (same corpus and settings)")

    p = sub.add_parser("generate", help="sample molecules from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-len", type=int, default=None)

    p = sub.add_parser("eval-gen", help="generation metrics for a SELFIES file")
    p.add_argument("--generated", required=True, help="SELFIES file, one per line")
    p.add_argument("--training-canon", required=True, help="SMILES file with the training set")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, default=None, help="unique@k window (default: set size)")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--width", type=int, default=1024)

    p = sub.add_parser("embed", help="write one embedding row per input SMILES line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lenient", action="store_true")

    p = sub.add_parser("eval-prop", help="property-prediction probe over frozen embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="CSV with smiles + label columns")
    p.add_argument("--manifest", required=True, help="task manifest (key=value)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _per_line(args, convert, config: dict[str, str], summary: str, finish=None) -> int:
    """Write convert(line) for each --input line to --output, line for line.

    Blank lines pass through. A line whose conversion raises one of
    propeval.REJECTS becomes a blank output line and a `<lineno>\t<reason>`
    row of <output>.rejects; <output>.rejects.json counts the rejects by
    exception type. `finish`, when given, maps a list of converted values to
    their output lines in one call (embed encodes them together). Lines are
    converted and written PER_LINE_CHUNK at a time, so memory does not grow
    with the input. The resolved command line (with `config`) goes to
    <output>.config.txt, and `summary` is printed with the counts. Every file
    is written atomically. Exit 0, or 1 when a line was rejected and
    --lenient is not given.
    """
    from collections import Counter

    from .checkpoint import atomic_write, write_text
    from .propeval import REJECTS

    out_path = Path(args.output)
    rejects: list[str] = []
    by_type: Counter[str] = Counter()
    lines = 0
    chunk: list = []  # converted values; None for a blank output line

    def flush(out) -> None:
        values = [value for value in chunk if value is not None]
        done = iter(values if finish is None else finish(values))
        out.writelines(f"{'' if value is None else next(done)}\n" for value in chunk)
        chunk.clear()

    with open(args.input, encoding="utf-8") as fh:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(out_path) as out:
            for lineno, line in enumerate(fh, 1):
                lines = lineno
                text = line.strip()
                try:
                    chunk.append(convert(text) if text else None)
                except REJECTS as exc:
                    rejects.append(f"{lineno}\t{exc}")
                    by_type[type(exc).__name__] += 1
                    chunk.append(None)
                if len(chunk) == PER_LINE_CHUNK:
                    flush(out)
            flush(out)
    write_text(str(out_path) + ".rejects", "".join(f"{r}\n" for r in rejects))
    counts = {"lines": lines, "rejected": len(rejects), "by_type": dict(sorted(by_type.items()))}
    write_text(str(out_path) + ".rejects.json", json.dumps(counts, indent=2, allow_nan=False) + "\n")
    echo_config({"command": args.command, "input": args.input, "output": args.output,
                 "lenient": str(args.lenient).lower(), **config}, Path(str(out_path) + ".config.txt"))
    print(summary.format(kept=lines - len(rejects), total=lines, rejected=len(rejects)))
    return EXIT_OK if (not rejects or args.lenient) else EXIT_DOMAIN


def cmd_convert(args) -> int:
    from .canon import write_smiles
    from .graph import GraphError
    from . import selfies
    from .smiles import parse_smiles

    def convert(text: str) -> str:
        if args.direction == "smiles-to-selfies":
            return selfies.join_tokens(selfies.encode(parse_smiles(text)))
        graph = selfies.decode(selfies.split_selfies(text))
        if not len(graph):
            raise GraphError("decodes to the empty molecule")
        return write_smiles(graph)

    return _per_line(args, convert, {"direction": args.direction},
                     "converted {kept}/{total} lines, {rejected} rejected")


def cmd_make_corpus(args) -> int:
    from .checkpoint import write_text
    from .corpus import MIN_TOKENS, sample_corpus

    if args.n < 1:
        raise ConfigError(f"make-corpus --n must be >= 1, got {args.n}")
    if args.max_tokens < MIN_TOKENS:
        raise ConfigError(f"make-corpus --max-tokens must be >= {MIN_TOKENS}, got {args.max_tokens}")
    molecules = sample_corpus(args.n, args.seed, args.min_atoms, args.max_tokens)
    path = Path(args.output)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, "\n".join(molecules) + "\n")
    echo_config(
        {"command": "make-corpus", "n": str(args.n), "seed": str(args.seed),
         "min_atoms": str(args.min_atoms), "max_tokens": str(args.max_tokens)},
        Path(str(path) + ".config.txt"))
    print(f"wrote {len(molecules)} molecules to {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    from dataclasses import asdict, fields

    from .model import ModelConfig
    from .selfies import split_selfies
    from .tokenizer import VocabularyError, build_vocab
    from .training import TrainSettings, train

    config = load_config(args.config, args.set)
    owner = {f.name: (cls, f) for cls in (ModelConfig, TrainSettings) for f in fields(cls)
             if f.name != "vocab_size"}
    unknown = set(config) - set(owner)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    kwargs = {ModelConfig: {}, TrainSettings: {}}
    for key, value in config.items():
        cls, f = owner[key]
        try:  # each value typed as its field's default
            kwargs[cls][key] = type(f.default)(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    settings = TrainSettings(**kwargs[TrainSettings]).validate()

    lines = [ln.strip() for ln in Path(args.corpus).read_text(encoding="utf-8").splitlines()]
    if not any(lines):
        raise VocabularyError(f"{args.corpus}: empty corpus")
    vocab = build_vocab([split_selfies(ln) for ln in lines if ln])
    model_config = ModelConfig(len(vocab), **kwargs[ModelConfig]).validate()
    # train checks the corpus and the --resume checkpoint before it makes --out-dir.
    _, log = train(args.corpus, vocab, model_config, settings,
                   out_dir=args.out_dir, resume_from=args.resume)
    resolved = {**asdict(model_config), **asdict(settings), "corpus": args.corpus}
    echo_config({k: str(v) for k, v in resolved.items()}, Path(args.out_dir) / "config_resolved.txt")
    last = log.steps[-1] if log.steps else None
    if last is not None:
        print(f"trained {len(log.steps)} steps; final loss {last.loss:.4f}, "
              f"masked accuracy {last.masked_acc:.3f}; skipped {log.skipped_too_long} over-length")
    return EXIT_OK


def cmd_generate(args) -> int:
    from .checkpoint import write_text
    from .genmetrics import generate_set
    from .training import load_model

    config, params, vocab, length_hist = load_model(args.checkpoint)
    start = time.perf_counter()
    generated = generate_set(params, config, vocab, args.n, args.seed, length_hist,
                             temperature=args.temperature, max_len=args.max_len,
                             checkpoint_id=Path(args.checkpoint).name)
    seconds = time.perf_counter() - start
    # Only now: generate_set validates its arguments, and a failed run leaves no directory behind.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "generated.selfies", "\n".join(generated.raw) + "\n")
    write_text(out_dir / "generated.smiles", "\n".join(c or "" for c in generated.canonical) + "\n")
    echo_config({"command": "generate", "checkpoint": args.checkpoint,
                 "n": str(args.n), "seed": str(args.seed), "temperature": str(args.temperature),
                 "max_len": str(args.max_len)}, out_dir / "config_resolved.txt")
    # seconds and tokens/s are wall-clock, so this is the one file of generate that differs per rerun.
    stats = {"n": len(generated), "empty": generated.empty, "truncated": generated.truncated,
             "sampled_tokens": generated.tokens, "seconds": round(seconds, 6),
             "tokens_per_s": round(generated.tokens / seconds, 1)}
    write_text(out_dir / "generation_stats.json", json.dumps(stats, indent=2, allow_nan=False) + "\n")
    print(f"generated {args.n} sequences; {len(generated.valid())} non-empty molecules; "
          f"{generated.empty} empty, {generated.truncated} cut off at max_len; "
          f"{generated.tokens} tokens in {seconds:.2f} s ({stats['tokens_per_s']:.0f} tokens/s)")
    return EXIT_OK


def cmd_eval_gen(args) -> int:
    from .checkpoint import write_text
    from .genmetrics import build_report, load_generated, load_training_canon

    report = build_report(load_generated(args.generated), load_training_canon(args.training_canon),
                          k=args.k, radius=args.radius, width=args.width)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "generation_report.json", report.to_json())
    echo_config({"command": "eval-gen", "generated": args.generated,
                 "training_canon": args.training_canon, "k": str(report.k),
                 "radius": str(args.radius), "width": str(args.width)},
                out_dir / "config_resolved.txt")
    print(report.to_table())
    return EXIT_OK


def cmd_embed(args) -> int:
    from .model import embed
    from .propeval import embed_ids
    from .smiles import parse_smiles
    from .training import load_model

    config, params, vocab, _ = load_model(args.checkpoint)

    def rows(ids: list) -> list[str]:
        return [",".join(f"{x:.8g}" for x in row) for row in embed(params, config, ids)]

    return _per_line(args, lambda text: embed_ids(parse_smiles(text), config, vocab),
                     {"checkpoint": args.checkpoint}, "embedded with {rejected} rejects", finish=rows)


def cmd_eval_prop(args) -> int:
    from .checkpoint import write_text
    from .propeval import DatasetError, TaskManifest, evaluate_dataset, load_dataset
    from .training import load_model

    config, params, vocab, _ = load_model(args.checkpoint)
    try:
        dataset = load_dataset(args.dataset, TaskManifest.load(args.manifest))
    except DatasetError as exc:
        # A bad manifest or dataset is a configuration error; the same class
        # raised later by evaluate_dataset (nothing left to probe) is a domain one.
        raise ConfigError(str(exc)) from exc
    result = evaluate_dataset(dataset, params, config, vocab, seed=args.seed,
                              checkpoint_id=Path(args.checkpoint).name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "property_result.json", result.to_json())
    echo_config({"command": "eval-prop", "checkpoint": args.checkpoint,
                 "dataset": args.dataset, "manifest": args.manifest, "seed": str(args.seed)},
                out_dir / "config_resolved.txt")
    print(f"{result.dataset}: {result.metric_name}={result.metric:.4f} (lambda={result.lam})")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help text or the usage error
        return EXIT_OK if not exc.code else EXIT_CONFIG
    threads = str(max(1, args.threads))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, threads)
    handlers = {
        "convert": cmd_convert,
        "make-corpus": cmd_make_corpus,
        "train": cmd_train,
        "generate": cmd_generate,
        "eval-gen": cmd_eval_gen,
        "embed": cmd_embed,
        "eval-prop": cmd_eval_prop,
    }
    from .checkpoint import CheckpointError
    from .model import ModelConfigError
    from .tokenizer import VocabularyError
    from .training import TrainingDivergedError, TrainSettingsError

    # Ordered: the first row with a matching class wins. ValueError is the base
    # of every other moldae error class, so it comes last.
    exit_codes = (
        ((ConfigError, ModelConfigError, TrainSettingsError), EXIT_CONFIG),
        ((OSError, CheckpointError, VocabularyError), EXIT_IO),
        ((TrainingDivergedError, RecursionError, ValueError), EXIT_DOMAIN),
    )
    try:
        if getattr(args, "seed", 0) < 0:  # make-corpus, generate and eval-prop; numpy seeds are >= 0
            raise ConfigError(f"{args.command} --seed must be >= 0, got {args.seed}")
        return handlers[args.command](args)
    except Exception as exc:
        for classes, code in exit_codes:
            if isinstance(exc, classes):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
