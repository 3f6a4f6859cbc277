"""Multi-MB synthetic samples for the ``classify-large`` workload.

The synthetic generator writes listings of about 20 KB, while the real
nine-family corpus has listings of several MB.  This module makes large
samples by concatenating same-family synthetic pieces, in a seeded order, until
the listing reaches a target size; the hex dumps of the same pieces are joined
in the same order.  Each piece keeps its own section banners and addresses,
which the listing parser accepts as consecutive segments.

Output depends only on (seed, per_family, target_bytes):
two builds with one seed are byte-identical.
"""
from __future__ import annotations

import hashlib
import random
import shutil
from pathlib import Path

from common import derive_seed
from malfam.corpus import CorpusManifest, scan_corpus
from malfam.synth import gen_synthetic

# synthetic pieces per family that large samples are joined from
POOL_PER_FAMILY = 16


def build_large(
    out_dir: str | Path,
    seed: int,
    per_family: int,
    target_bytes: int,
) -> CorpusManifest:
    """Write ``per_family`` large samples per family plus a labels CSV.

    Every listing is at least ``target_bytes`` long and at most one piece
    longer.  No piece directly follows itself.
    """
    if per_family < 1 or target_bytes < 1:
        raise ValueError("per_family and target_bytes must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pieces_dir = out / "_pieces"
    try:
        pieces = gen_synthetic(POOL_PER_FAMILY, derive_seed(seed, "large-pieces"), pieces_dir)
        by_family: dict[int, list[tuple[bytes, bytes]]] = {}
        for sample in pieces.samples:
            by_family.setdefault(sample.label, []).append(
                (sample.asm_path.read_bytes(), sample.bytes_path.read_bytes())
            )
    finally:
        shutil.rmtree(pieces_dir, ignore_errors=True)

    labels: dict[str, int] = {}
    for family, pool in sorted(by_family.items()):
        for index in range(per_family):
            rng = random.Random(f"{seed}:large:{family}:{index}")
            asm_parts: list[bytes] = []
            dump_parts: list[bytes] = []
            size = 0
            last = -1
            while size < target_bytes:
                pick = rng.randrange(len(pool) - 1)
                if pick >= last >= 0:
                    pick += 1  # skip the piece just used
                last = pick
                asm_parts.append(pool[pick][0])
                dump_parts.append(pool[pick][1])
                size += len(pool[pick][0])
            sample_id = hashlib.sha256(f"{seed}:large-id:{family}:{index}".encode()).hexdigest()[:20]
            (out / f"{sample_id}.asm").write_bytes(b"".join(asm_parts))
            (out / f"{sample_id}.bytes").write_bytes(b"".join(dump_parts))
            labels[sample_id] = family
    rows = ['"Id","Class"'] + [f'"{sid}","{labels[sid]}"' for sid in sorted(labels)]
    (out / "labels.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    return scan_corpus(out, labels)
