"""The columnar COCO loader against the entry-by-entry oracle, on mutated files.

Each mutant starts from a valid seeded file and gets one to three mutations:
type swaps, deleted keys, extra nesting, list ids, NaN and infinities, huge
ints, ``-0.0``, ``true`` and numeric-string coordinates, coordinates past
every border, entries shuffled across images. Annotations and detections
are mixed in every file. The loader must return what ``load_ref`` returns,
value and ``int``/``float`` type alike, or raise its error with its message.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from boxrefine.cli import main
from boxrefine.datamodel import DatasetFormatError, load_annotations

from oracles import RefFormatError, load_ref

PROVENANCE_NAMES = ("original", "corrected", "mined")


def base_file(rng: np.random.Generator) -> dict:
    """A valid file: str and int image ids, unsorted category ids, entries in
    any image order with both box fields, scores with and without logits."""
    images = []
    for k in range(int(rng.integers(1, 4))):
        image_id = f"im{k}" if rng.random() < 0.6 else 100 + k
        width = int(rng.integers(20, 200))
        images.append({"id": image_id, "width": width if rng.random() < 0.8 else float(width),
                       "height": int(rng.integers(20, 200))})
    cat_ids = [7, 1, 3][: int(rng.integers(1, 4))]
    categories = [{"id": c, "name": f"c{c}"} for c in cat_ids]
    entries = []
    for k in range(int(rng.integers(0, 9))):
        img = images[int(rng.integers(len(images)))]
        w, h = img["width"], img["height"]
        x1, y1 = rng.uniform(-20.0, w + 5.0), rng.uniform(-20.0, h + 5.0)
        a, b = rng.uniform(0.0, 60.0, 2)
        values = [float(x1), float(y1), float(a), float(b)]
        if rng.random() < 0.3:
            values = [int(round(v)) for v in values]
        entry = {"image_id": img["id"], "category_id": int(rng.choice(cat_ids))}
        if rng.random() < 0.8:
            entry["id"] = k + 1
        form = rng.random()
        if form < 0.4:
            entry["bbox"] = values
        else:
            x, y, a, b = values
            entry["bbox_xyxy"] = [x, y, x + a, y + b]
            if form < 0.7:
                entry["bbox"] = values
        if rng.random() < 0.5:
            entry["score"] = round(float(rng.uniform(0.0, 1.0)), 3)
            if rng.random() < 0.5:
                entry["logit"] = float(rng.normal(0.0, 3.0))
        elif rng.random() < 0.6:
            entry["provenance"] = PROVENANCE_NAMES[int(rng.integers(3))]
        entries.append(entry)
    return {"images": images, "categories": categories, "annotations": entries}


ODD_VALUES = (
    "x", "12.5", " 7 ", "1_0", "nan", True, False, None, [], [1], {}, {"a": 1},
    float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), -0.0, 0, 3.5,
)
ENTRY_KEYS = ("image_id", "category_id", "bbox", "bbox_xyxy", "score", "logit", "provenance", "id")


def mutate(payload: dict, rng: np.random.Generator) -> None:
    """Apply one seeded mutation to ``payload`` in place."""
    entries, images = payload["annotations"], payload["images"]
    odd = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
    kind = int(rng.integers(9))
    if kind == 8 or not entries:
        target = images[int(rng.integers(len(images)))]
        key = ("id", "width", "height")[int(rng.integers(3))]
        if key == "id" and len(images) > 1 and rng.random() < 0.3:
            # an int id and its str: distinct in the file, equal once loaded
            images[0]["id"], images[-1]["id"] = 100, "100"
        elif rng.random() < 0.3:
            target.pop(key, None)
        else:
            target[key] = odd
        return
    k = int(rng.integers(len(entries)))
    entry = entries[k]
    if not isinstance(entry, dict):  # an earlier mutation replaced it
        return
    if kind == 0:  # type swap of a field, or of the whole entry
        if rng.random() < 0.1:
            entries[k] = odd
        else:
            entry[ENTRY_KEYS[int(rng.integers(len(ENTRY_KEYS)))]] = odd
    elif kind == 1:  # a deleted key
        entry.pop(ENTRY_KEYS[int(rng.integers(len(ENTRY_KEYS)))], None)
    elif kind == 2:  # extra nesting, a list id among them
        key = ENTRY_KEYS[int(rng.integers(len(ENTRY_KEYS)))]
        if key in entry:
            entry[key] = [entry[key]]
    elif kind in (3, 4):  # one coordinate: odd, non-finite, huge, -0.0, true, a string
        for key in ("bbox", "bbox_xyxy"):
            if isinstance(entry.get(key), list) and entry[key]:
                entry[key][int(rng.integers(len(entry[key])))] = odd
    elif kind == 5:  # past every border of every base image
        entry["bbox_xyxy"] = [-750.0, -3, 1000.5, 1500]
    elif kind == 6:  # shuffled across images
        rng.shuffle(entries)
    else:  # a score or logit out of range, or a wrong list length
        choice = int(rng.integers(3))
        if choice == 0:
            entry["score"] = float(rng.choice([-0.5, 1.5, 1.0, 0.0, -0.0]))
        elif choice == 1:
            entry["logit"] = odd
        else:
            entry["bbox_xyxy" if "bbox_xyxy" in entry else "bbox"] = [1.0, 2.0, 3.0]


def typed(value):
    """Nested values with every number shown with its type and sign."""
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    if isinstance(value, (int, float)):
        return (type(value).__name__, repr(value))
    return value


def loaded(path):
    """The package loader's result in the oracle's shape."""
    ds = load_annotations(path)
    images = [
        (
            rec.image_id, rec.width, rec.height,
            [(*a.box.as_tuple(), a.label, a.provenance) for a in rec.annotations],
            None if rec.detections is None
            else [(*d.box.as_tuple(), d.label, d.prob, d.logit) for d in rec.detections],
        )
        for rec in ds.images
    ]
    return ds.class_names, images


def outcome(load, path):
    try:
        names, images = load(path)
    except RefFormatError as exc:
        return "format", str(exc)
    except DatasetFormatError as exc:
        return "format", str(exc)
    except ValueError as exc:
        return "value", str(exc)
    return "ok", (names, typed(images))


def mutants(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        payload = base_file(rng)
        for _ in range(int(rng.integers(1, 4))):
            mutate(payload, rng)
        yield payload


def test_loader_matches_the_entry_oracle_on_mutants(tmp_path):
    kinds = {"ok": 0, "format": 0, "value": 0}
    collisions = 0
    for n, payload in enumerate(mutants(808, 1500)):
        path = tmp_path / f"m{n % 7}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        want = outcome(load_ref, path)
        got = outcome(loaded, path)
        assert got == want, (n, payload)
        kinds[want[0]] += 1
        collisions += want[0] == "format" and "once read as text" in want[1]
    # the mutants reach every outcome often enough to mean something, ids
    # that collide only after str() included
    assert kinds["ok"] > 150 and kinds["format"] > 600 and collisions > 0


def test_unmutated_files_load_like_the_oracle(tmp_path):
    rng = np.random.default_rng(809)
    for n in range(200):
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(base_file(rng)), encoding="utf-8")
        want = outcome(load_ref, path)
        assert want[0] == "ok"
        assert outcome(loaded, path) == want, n


@pytest.mark.parametrize("n", range(12))
def test_mutants_through_the_cli(tmp_path, capsys, n):
    payload = list(mutants(810 + n, 1))[0]
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    runs = (
        ["correct", "--profile", "nb20-ns50", "--targets", str(path), "--detections", str(path),
         "--out", str(tmp_path / "corrected")],
        ["evaluate", "--ground-truth", str(path), "--predictions", str(path),
         "--annotations", str(path), "--out", str(tmp_path / "metrics")],
    )
    for argv in runs:
        rc = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        assert rc == 0 or (rc == 1 and str(path) in err), err
