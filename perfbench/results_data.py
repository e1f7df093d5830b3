"""Seeded WCG-style result uploads for the ``results`` workload.

Writes one text result file per uploaded chunk (a workunit's slice of one
receptor-ligand couple), in the line format of Section 5.2, shuffled as
uploads arrive.  Two chunks are damaged on purpose: one carries an energy
out of range, one lost its last lines.  The expected outputs of the
post-processing pass are computed here, from the generated integers, with
no ``repro`` code involved:

* the check verdicts (exactly the two damaged chunks);
* the merged records of every couple whose chunks all pass, digested;
* the best-energy matrix (``+inf`` for rejected couples), digested;
* the bytes of each merged couple's text export, digested.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

N_ROT_COUPLES = 21
N_GAMMA = 10
LINE_FORMAT = (
    "%7d %3d %3d %10.3f %10.3f %10.3f "
    "%8.4f %8.4f %8.4f %13.4f %13.4f %13.4f"
)
#: the result-record layout: three index columns, nine values
RECORD_DTYPE = np.dtype(
    [("isep", np.int64), ("irot", np.int64), ("igamma", np.int64)]
    + [(f, np.float64) for f in (
        "x", "y", "z", "alpha", "beta", "gamma", "e_lj", "e_elec", "e_tot")]
)
#: an energy far outside the checks' accepted magnitude
CORRUPT_ENERGY = 9.9e6
SHORT_BY_LINES = 5


def header_lines(receptor, ligand, isep_start, nsep) -> list[str]:
    return [
        "# MAXDo result file (repro)",
        f"# receptor {receptor}",
        f"# ligand {ligand}",
        f"# isep_start {isep_start}",
        f"# nsep {nsep}",
        f"# n_couples {N_ROT_COUPLES}",
        f"# n_gamma {N_GAMMA}",
    ]


def render(header: list[str], records: np.ndarray) -> bytes:
    rows = records.tolist()
    body = "".join(LINE_FORMAT % row + "\n" for row in rows)
    return ("\n".join(header) + "\n" + body).encode("ascii")


def couple_records(rng: np.random.Generator, nsep: int) -> np.ndarray:
    """Every (position, orientation couple) row of one couple, in merge
    order, with fixed-point values the text format holds exactly."""
    n = nsep * N_ROT_COUPLES
    rec = np.zeros(n, dtype=RECORD_DTYPE)
    rec["isep"] = np.repeat(np.arange(1, nsep + 1), N_ROT_COUPLES)
    rec["irot"] = np.tile(np.arange(1, N_ROT_COUPLES + 1), nsep)
    rec["igamma"] = rng.integers(1, N_GAMMA + 1, n)
    for f in ("x", "y", "z"):
        rec[f] = rng.integers(-60_000, 60_001, n) / 1e3
    for f in ("alpha", "beta", "gamma"):
        rec[f] = rng.integers(0, 62_832, n) / 1e4
    e_lj = rng.integers(-600_000, 100_001, n)
    e_elec = rng.integers(-200_000, 50_001, n)
    rec["e_lj"] = e_lj / 1e4
    rec["e_elec"] = e_elec / 1e4
    rec["e_tot"] = (e_lj + e_elec) / 1e4
    return rec


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(seed: int, out_dir: str, n_proteins: int = 12,
             chunk_positions: int = 16) -> dict:
    """Write the uploads under ``out_dir``; return the expected outputs."""
    rng = np.random.default_rng([seed, 5_2])
    names = [f"P{k:03d}" for k in range(n_proteins)]
    nsep = {p: int(rng.integers(40, 81)) for p in names}
    couples = [(r, l) for r in names for l in names]
    records = {c: couple_records(rng, nsep[c[0]]) for c in couples}

    chunks = []  # (couple, isep_start, records)
    for c in couples:
        rec = records[c]
        for start in range(1, nsep[c[0]] + 1, chunk_positions):
            stop = min(start + chunk_positions, nsep[c[0]] + 1)
            sel = (rec["isep"] >= start) & (rec["isep"] < stop)
            chunks.append((c, start, stop - start, rec[sel]))
    order = rng.permutation(len(chunks))
    corrupt_k, short_k = (int(k) for k in rng.choice(len(chunks), 2, replace=False))
    while chunks[short_k][0] == chunks[corrupt_k][0]:
        short_k = int(rng.integers(len(chunks)))

    os.makedirs(out_dir, exist_ok=True)
    paths, bad_values, bad_count = [], [], []
    rows = text_bytes = 0
    for upload, k in enumerate(order):
        (r, l), start, n, rec = chunks[k]
        name = f"wu{upload:05d}_{r}_{l}_{start}.result"
        if k == corrupt_k:
            rec = rec.copy()
            rec["e_tot"][len(rec) // 2] = CORRUPT_ENERGY
            bad_values.append(name)
        if k == short_k:
            rec = rec[:-SHORT_BY_LINES]
            bad_count.append(name)
        data = render(header_lines(r, l, start, n), rec)
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        paths.append(path)
        rows += len(rec)
        text_bytes += len(data)

    rejected = {chunks[corrupt_k][0], chunks[short_k][0]}
    accepted = [c for c in couples if c not in rejected]
    index = {p: i for i, p in enumerate(names)}
    matrix = np.full((n_proteins, n_proteins), np.inf)
    merged = hashlib.sha256()
    exports = {}
    for c in accepted:
        rec = records[c]
        merged.update(rec.tobytes())
        matrix[index[c[0]], index[c[1]]] = rec["e_tot"].min()
        text = render(header_lines(c[0], c[1], 1, nsep[c[0]]), rec)
        exports[f"{c[0]}_{c[1]}_1.result"] = sha(text)
    return {
        "names": names,
        "paths": paths,
        "n_chunks": len(paths),
        "rows": rows,
        "text_bytes": text_bytes,
        "bad_values": bad_values,
        "bad_line_count": bad_count,
        "accepted": [list(c) for c in accepted],
        "merged_sha": merged.hexdigest(),
        "matrix_sha": sha(matrix.tobytes()),
        "export_sha": exports,
    }
