"""Non-interactive job CLI — the Ray-native replacement for the reference's
interactive picker loop (``ocr.py:73-196``): engine chosen by flag from the
registry, resume handled by the manifest anti-join instead of done-marker
files, one command per batch run.

    python -m norsk_historisk_avis_ocr_ray.cli run \
        --corpus /data/corpus --out /data/out --engine mock-barcode

    python -m norsk_historisk_avis_ocr_ray.cli extract \
        --docs /data/documents --pages /data/pages --out /data/out

``run`` is the resumable shard-local job (co-partitioned corpus);
``extract`` is the general shuffle pipeline for arbitrary layouts.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="norsk_historisk_avis_ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def engine_flags(sp):
        # reference config surface (ocr.py:84-116): forwarded to the engine
        # factory; only the LLM-vision engine consumes them.
        sp.add_argument("--engine", default="mock-barcode")
        sp.add_argument("--model", default=None,
                        help="LLM model id (llm-vision engine)")
        sp.add_argument("--region", default=None,
                        help="AWS region for Bedrock (llm-vision engine)")
        sp.add_argument("--max-tokens", type=int, default=None,
                        help="max output tokens per OCR call (llm-vision)")

    pr = sub.add_parser("run", help="resumable shard-local extraction")
    pr.add_argument("--corpus", required=True,
                    help="dir with documents/ and pages/ parquet shards")
    pr.add_argument("--out", required=True)
    engine_flags(pr)
    pr.add_argument("--no-correction", action="store_true")
    pr.add_argument("--num-cpus", type=int, default=None)

    pe = sub.add_parser("extract", help="general shuffle pipeline")
    pe.add_argument("--docs", required=True)
    pe.add_argument("--pages", default=None)
    pe.add_argument("--out", required=True)
    engine_flags(pe)
    pe.add_argument("--no-correction", action="store_true")
    pe.add_argument("--num-cpus", type=int, default=None)

    pd = sub.add_parser("debug-render",
                        help="S8 debug pass: annotated-page bundles per page")
    pd.add_argument("--pages", required=True, help="pages parquet dir")
    pd.add_argument("--out", required=True, help="debug output root")
    pd.add_argument("--num-cpus", type=int, default=None)

    pq_ = sub.add_parser("query",
                         help="run any registered query/operator and write "
                              "its result as parquet")
    pq_.add_argument("--name", required=True,
                     help="a queries() entry from __ray_entry__")
    pq_.add_argument("--sf-dir", required=True)
    pq_.add_argument("--out", required=True)
    pq_.add_argument("--num-cpus", type=int, default=None)

    pp = sub.add_parser("prepare",
                        help="resumable training-corpus preparation "
                             "(filter + decontaminate + dedup)")
    pp.add_argument("--sf-dir", required=True,
                    help="dir with documents.parquet")
    pp.add_argument("--out", required=True)
    pp.add_argument("--shards", type=int, default=32)
    pp.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")

    if args.cmd == "query":
        import importlib
        import os as _os
        import sys as _sys

        _sys.path.insert(0, _os.getcwd())
        entry = importlib.import_module("__ray_entry__")
        qs = entry.queries()
        if args.name not in qs:
            print(json.dumps({"error": f"unknown query {args.name!r}",
                              "available": sorted(qs)}))
            ray.shutdown()
            return 2
        result = qs[args.name](args.sf_dir)
        from .sources.io import write_output

        if hasattr(result, "write_parquet"):          # Dataset result
            # materialize once (object-store-resident, spillable) so the
            # row count doesn't re-execute the whole pipeline post-write
            result = result.materialize()
            write_output(result, args.out)
            n = result.count()
        else:                                          # pandas / Arrow
            import pandas as pd
            import pyarrow as pa
            import pyarrow.parquet as _pq

            tbl = (pa.Table.from_pandas(result, preserve_index=False)
                   if isinstance(result, pd.DataFrame) else result)
            _os.makedirs(args.out, exist_ok=True)
            _pq.write_table(tbl, _os.path.join(args.out, "result.parquet"))
            n = len(tbl)
        print(json.dumps({"query": args.name, "rows": int(n),
                          "out": args.out}))
        ray.shutdown()
        return 0

    if args.cmd == "prepare":
        from .pipelines.prepare import prepare_training_corpus

        summary = prepare_training_corpus(args.sf_dir, args.out,
                                          n_shards=args.shards)
        print(json.dumps(summary))
        ray.shutdown()
        return 0

    if args.cmd == "debug-render":
        from .stages.debug_render import render_debug

        summary = render_debug(args.pages, args.out)
        stats = summary.to_pandas()
        print(json.dumps({"pages": int(len(stats)),
                          "skipped": int(stats["skipped"].sum()),
                          "errors": int(stats["error"].notna().sum()),
                          "titles": int(stats["title_detected"].sum())}))
        ray.shutdown()
        return 0

    from .stages.ocr import get_engine

    engine_factory = get_engine(args.engine)
    engine_kwargs = {k: v for k, v in (("model", args.model),
                                       ("region", args.region),
                                       ("max_tokens", args.max_tokens))
                     if v is not None}
    if engine_kwargs:
        import functools

        engine_factory = functools.partial(engine_factory, **engine_kwargs)

    if args.cmd == "run":
        from .pipelines.run import run_resumable

        summary = run_resumable(args.corpus, args.out,
                                engine_factory=engine_factory,
                                correction=not args.no_correction)
        print(json.dumps(summary))
    else:
        from .pipelines.extract import extract
        from .sources.io import read_documents, write_output

        docs = read_documents(args.docs)
        out = extract(docs, args.pages, engine_factory=engine_factory,
                      correction=not args.no_correction)
        write_output(out, args.out)
        print(json.dumps({"output": args.out}))

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
