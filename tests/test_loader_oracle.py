"""The columnar COCO loader against the entry-by-entry oracle, on mutated files.

Each mutant starts from a valid seeded file and gets one to three mutations:
type swaps, deleted keys, extra nesting, list ids, NaN and infinities, huge
ints, ``-0.0``, ``true`` and numeric-string coordinates, coordinates past
every border, entries shuffled across images. Annotations and detections
are mixed in every file. The loader must return what ``load_ref`` returns,
value and ``int``/``float`` type alike, or raise its error with its message.
"""

from __future__ import annotations

import copy
import json
import sys
from itertools import combinations, product

import numpy as np
import pytest

from boxrefine.cli import main
from boxrefine.datamodel import DatasetFormatError, load_annotations

from oracles import RefFormatError, load_ref

PROVENANCE_NAMES = ("original", "corrected", "mined")


def base_file(
    rng: np.random.Generator, images_in: tuple = (1, 4), entries_in: tuple = (0, 9)
) -> dict:
    """A valid file: str and int image ids, unsorted category ids, entries in
    any image order with both box fields, scores with and without logits.
    The image and entry counts are drawn from the half-open ranges given."""
    images = []
    for k in range(int(rng.integers(*images_in))):
        image_id = f"im{k}" if rng.random() < 0.6 else 100 + k
        width = int(rng.integers(20, 200))
        images.append({"id": image_id, "width": width if rng.random() < 0.8 else float(width),
                       "height": int(rng.integers(20, 200))})
    cat_ids = [7, 1, 3][: int(rng.integers(1, 4))]
    categories = [{"id": c, "name": f"c{c}"} for c in cat_ids]
    entries = []
    for k in range(int(rng.integers(*entries_in))):
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
    # a copy: the file's lists and objects are changed in place later on
    odd = copy.deepcopy(ODD_VALUES[int(rng.integers(len(ODD_VALUES)))])
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


def long_mutants(seed: int, count: int):
    """Files of about 2,000 entries over about 500 images, each a copy of
    one of four valid files mutated one to three times within its last
    tenth of images and entries."""
    rng = np.random.default_rng(seed)
    bases = [json.dumps(base_file(rng, (450, 551), (1800, 2201))) for _ in range(4)]
    for n in range(count):
        payload = json.loads(bases[n % len(bases)])
        entries, images = payload["annotations"], payload["images"]
        tail = {
            "images": images[-len(images) // 10:],
            "categories": payload["categories"],
            "annotations": entries[-len(entries) // 10:],
        }
        for _ in range(int(rng.integers(1, 4))):
            mutate(tail, rng)
        # image mutations change the shared dicts; entries may be replaced
        entries[-len(tail["annotations"]):] = tail["annotations"]
        yield payload


def test_long_mutants_load_like_the_oracle(tmp_path):
    # long columns through the whole-column gather and, when an entry cannot
    # be gathered, through the search for it and the gather of the prefix
    kinds = {"ok": 0, "format": 0, "value": 0}
    for n, payload in enumerate(long_mutants(811, 24)):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        want = outcome(load_ref, path)
        assert outcome(loaded, path) == want, n
        kinds[want[0]] += 1
    assert kinds["ok"] >= 4 and kinds["format"] >= 12


# values float() reads as numbers that JSON does not read as numbers
NOT_NUMBERS = ("1_0", " 2 ", "3.5", "0.5", "nan", "-inf", "1e3", True, False)


def test_values_that_are_not_json_numbers_are_rejected(tmp_path):
    # each of these once loaded as the number float() makes of it
    seen = set()
    rng = np.random.default_rng(813)
    for n in range(400):
        payload = base_file(rng, entries_in=(1, 9))
        value = NOT_NUMBERS[n % len(NOT_NUMBERS)]
        entry = payload["annotations"][int(rng.integers(len(payload["annotations"])))]
        field = ("box", "score", "logit", "width", "height")[int(rng.integers(5))]
        if field == "box":
            box = entry["bbox_xyxy" if "bbox_xyxy" in entry else "bbox"]
            box[int(rng.integers(4))] = value
        elif field in ("score", "logit"):
            entry.setdefault("score", 0.5)
            entry[field] = value
        else:
            payload["images"][int(rng.integers(len(payload["images"])))][field] = value
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        want = outcome(load_ref, path)
        assert want[0] == "format", (n, payload)
        assert outcome(loaded, path) == want, (n, payload)
        # a size is first a positive int or float: only true reaches the number rule
        if "must be a finite number" in want[1]:
            seen.add((field, value))
    assert len(seen) == 3 * len(NOT_NUMBERS) + 2


@pytest.mark.parametrize(
    "field, value", [("bbox", ["1_0", " 2 ", True, "3.5"]), ("score", "0.5"), ("logit", False)]
)
def test_strings_and_booleans_are_not_numbers(tmp_path, field, value):
    entry = {"id": 1, "image_id": "im", "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.25}
    entry[field] = value
    payload = {
        "images": [{"id": "im", "width": 64, "height": 64}],
        "categories": [{"id": 1, "name": "a"}],
        "annotations": [entry],
    }
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        load_annotations(path)
    assert str(exc.value) == (
        f"{path}: annotation 1: {field!r} must be a finite number, got {value!r}"
    )
    assert outcome(load_ref, path) == ("format", str(exc.value))


def mutate_categories(payload: dict, rng: np.random.Generator) -> None:
    """One seeded change to the categories: a repeated id, equal as a Python
    value (``1``, ``1.0``, ``true``); a new order; or a gap in the ids, the
    entries of the moved class moved along."""
    categories = payload["categories"]
    kind = int(rng.integers(3))
    source = categories[int(rng.integers(len(categories)))]["id"]
    if kind == 0:
        forms = [source, float(source)] + ([True] if source == 1 else [])
        twin = {"id": forms[int(rng.integers(len(forms)))], "name": "twin"}
        categories.insert(int(rng.integers(len(categories) + 1)), twin)
    elif kind == 1:
        rng.shuffle(categories)
    else:
        for cat in categories:
            if cat["id"] == source:
                cat["id"] = source + 100
        for entry in payload["annotations"]:
            if entry["category_id"] == source:
                entry["category_id"] = source + 100


def test_category_mutants_load_like_the_oracle(tmp_path):
    kinds = {"ok": 0, "format": 0, "value": 0}
    duplicates = 0
    rng = np.random.default_rng(812)
    for n in range(400):
        payload = base_file(rng)
        mutate_categories(payload, rng)
        if rng.random() < 0.3:
            mutate(payload, rng)
        path = tmp_path / "categories.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        want = outcome(load_ref, path)
        assert outcome(loaded, path) == want, (n, payload)
        kinds[want[0]] += 1
        duplicates += want[0] == "format" and "duplicate category id" in want[1]
    assert kinds["ok"] > 150 and duplicates > 50


@pytest.mark.parametrize("twin", [1, 1.0, True])
def test_duplicate_category_ids_are_rejected(tmp_path, twin):
    # without the check, the annotation would load as class b and a phantom
    # class a would be written beside it
    payload = {
        "images": [{"id": "im", "width": 64, "height": 64}],
        "categories": [{"id": 1, "name": "a"}, {"id": twin, "name": "b"}],
        "annotations": [{"id": 1, "image_id": "im", "category_id": 1, "bbox": [1, 2, 3, 4]}],
    }
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        load_annotations(path)
    assert str(exc.value) == f"{path}: duplicate category id {twin!r}"
    assert outcome(load_ref, path) == ("format", str(exc.value))


def test_mutants_leave_the_odd_values_unchanged():
    # mutate writes into the lists and objects it has put in a file: were
    # they the shared values, later mutants would start from changed ones,
    # and a list could end up holding itself
    before = repr(ODD_VALUES)
    for seed, count in ((811, 1500), (2000, 500)):
        for payload in mutants(seed, count):
            json.dumps(payload)
    assert repr(ODD_VALUES) == before


DELETE = object()  # a field to remove, not to set
BOX = "box"  # the box field of an entry, bbox_xyxy unless it is null

# A way to break each rule of an entry of ``annotations``, numbered in the
# loader's order: the words of its message, the field it sets (``(BOX, i)``
# is a box's i-th value) and the values that break it. Where two rules read
# one field, some values of the earlier rule break both.
ENTRY_BREAKS = {
    1: ("missing 'image_id'", "image_id", [DELETE]),
    2: ("unknown image_id", "image_id", ["nope", ["im1"]]),
    3: ("missing 'category_id'", "category_id", [DELETE]),
    4: ("unknown category_id", "category_id", [99, {"a": 1}]),
    5: ("must be a list of 4 numbers", BOX, [[1.0, 2.0, 3.0], "abcd", 7]),
    6: ("must be a finite number, got [", (BOX, 3), [float("nan"), "x", 10**400, "1_0", True]),
    7: ("bbox_xyxy corners not canonical", (BOX, 0), [1000.0]),
    8: ("negative bbox size", (BOX, 2), [-3.0]),
    9: ("'score' must be a finite number", "score", [float("inf"), "x", "0.5", True]),
    10: ("outside [0, 1]", "score", [1.5]),
    11: ("'logit' must be a finite number", "logit", [float("nan"), "x", False, " 2 "]),
    12: ("unknown provenance", "provenance", ["bogus", ["a"]]),
    # both find the image whose id is 1
    13: ("'image_id' must be a string or an integer", "image_id", [True, 1.0]),
}
# pairs no one entry breaks: a field both missing and unknown, or missing and
# of the wrong type; a box that is not a list of 4 and has values; corners
# and a size; a provenance beside a score
ENTRY_APART = {(1, 2), (1, 13), (3, 4), (5, 6), (5, 7), (5, 8), (7, 8), (9, 12), (10, 12),
               (11, 12)}

IMAGE_BREAKS = {
    2: ("missing 'id'", "id", [DELETE]),
    3: ("must not be a list or object", "id", [[1], {"a": 1}]),
    4: ("missing or non-positive 'width'", "width",
        [DELETE, 0, "12", None, -4.5, False, float("-inf")]),
    5: ("'width' must be a finite number", "width", [float("inf"), 10**400, True]),
    6: ("'width' must be a whole number", "width", [12.5]),
    7: ("missing or non-positive 'height'", "height", [DELETE, -1.5, False, -(10**400)]),
    8: ("'height' must be a finite number", "height", [float("inf"), True]),
    9: ("'height' must be a whole number", "height", [20.5]),
    10: ("duplicate image id", "id", ["im0", 1.0]),
    11: ("'id' must be a string or an integer", "id", [None, True, 1.5]),
}
# an id both missing and a list, or either and repeated, or missing and of
# the wrong type; a size that is not finite yet breaks the whole-number rule
# alone
IMAGE_APART = {(2, 3), (2, 10), (2, 11), (3, 10), (5, 6), (8, 9)}


def broken(row: dict, field: object, value: object) -> None:
    """Set ``field`` of ``row`` to a copy of ``value``, or delete it."""
    index = None
    if isinstance(field, tuple):
        field, index = field
    if field == BOX:
        field = "bbox_xyxy" if row.get("bbox_xyxy") is not None else "bbox"
    if index is not None:
        row[field][index] = copy.deepcopy(value)
    elif value is DELETE:
        row.pop(field, None)
    else:
        row[field] = copy.deepcopy(value)


def rule_pairs(breaks: dict, apart: set):
    """Each pair of rules one row can break, and each way to break both: the
    pair, the earlier rule's words and the changes to make, the earlier
    rule's last (on one field, its value is the one kept)."""
    for (a, (words, field_a, values_a)), (b, (_, field_b, values_b)) in combinations(
        breaks.items(), 2
    ):
        if (a, b) not in apart:
            for value_a, value_b in product(values_a, values_b):
                yield (a, b), words, ((field_b, value_b), (field_a, value_a))


def assert_reported_in_order(path, payload, pair, words):
    path.write_text(json.dumps(payload), encoding="utf-8")
    want = outcome(load_ref, path)
    assert want[0] == "format" and words in want[1], (pair, payload, want)
    assert outcome(loaded, path) == want, (pair, payload)


def test_every_pair_of_entry_rules_is_reported_in_order(tmp_path):
    # the third entry breaks both rules of the pair; the earlier one is reported
    for pair, words, changes in rule_pairs(ENTRY_BREAKS, ENTRY_APART):
        entry = {"id": 5, "image_id": "im1", "category_id": 3, "bbox": [10.0, 12.0, 20.0, 28.0]}
        if 8 not in pair:
            entry["bbox_xyxy"] = [10.0, 12.0, 30.0, 40.0]
        if {9, 10, 11} & set(pair):
            entry["score"], entry["logit"] = 0.5, 0.25
        if 12 in pair:
            entry["provenance"] = "mined"
        for field, value in changes:
            broken(entry, field, value)
        payload = {
            "images": [{"id": "im0", "width": 64, "height": 64},
                       {"id": "im1", "width": 64, "height": 48},
                       {"id": 1, "width": 64, "height": 48}],
            "categories": [{"id": 3, "name": "c3"}, {"id": 1, "name": "c1"}],
            "annotations": [
                {"id": 1, "image_id": "im0", "category_id": 1, "bbox": [1, 2, 3, 4]},
                {"id": 2, "image_id": "im1", "category_id": 3, "bbox": [1, 2, 3, 4],
                 "score": 0.75},
                entry,
                {"id": 9, "image_id": "im1", "category_id": 1, "bbox_xyxy": [1, 2, 3, 4]},
            ],
        }
        assert_reported_in_order(tmp_path / "pairs.json", payload, pair, words)


def test_every_pair_of_image_rules_is_reported_in_order(tmp_path):
    # the third image breaks both rules of the pair; the earlier one is reported
    for pair, words, changes in rule_pairs(IMAGE_BREAKS, IMAGE_APART):
        image = {"id": "im2", "width": 64, "height": 48}
        for field, value in changes:
            broken(image, field, value)
        payload = {
            "images": [{"id": "im0", "width": 64, "height": 64},
                       {"id": 1, "width": 32, "height": 32},
                       image,
                       {"id": "im3", "width": 16, "height": 16}],
            "categories": [{"id": 1, "name": "c1"}],
            "annotations": [{"id": 1, "image_id": "im0", "category_id": 1, "bbox": [1, 2, 3, 4]}],
        }
        assert_reported_in_order(tmp_path / "pairs.json", payload, pair, words)


@pytest.mark.parametrize("value", [None, True, 1.5])
@pytest.mark.parametrize("field", ["id", "image_id"])
def test_ids_must_be_strings_or_integers(tmp_path, field, value):
    # each once loaded as the text str() makes of it; an image_id of true
    # also found the image whose id is 1
    payload = {
        "images": [{"id": "im0", "width": 64, "height": 64},
                   {"id": "im", "width": 64, "height": 64}],
        "categories": [{"id": 1, "name": "a"}],
        "annotations": [{"id": 7, "image_id": "im", "category_id": 1, "bbox": [1, 2, 3, 4]}],
    }
    if field == "id":
        payload["images"][1]["id"] = value
        payload["annotations"][0]["image_id"] = value
        words = f"image entry 2: 'id' must be a string or an integer, got {value!r}"
    else:
        payload["images"][0]["id"] = 1
        payload["annotations"][0]["image_id"] = value
        words = (f"annotation 7: 'image_id' must be a string or an integer, got {value!r}"
                 if value is True else f"annotation 7: unknown image_id {value!r}")
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        load_annotations(path)
    assert str(exc.value) == f"{path}: {words}"
    assert outcome(load_ref, path) == ("format", str(exc.value))


def _payload_text(image_id: str = '"im"', category_id: str = "1") -> str:
    """A valid file's text, its image id and category id the JSON texts given."""
    return (
        '{"images": [{"id": ' + image_id + ', "width": 64, "height": 48}], '
        '"categories": [{"id": ' + category_id + ', "name": "a"}], '
        '"annotations": [{"id": 1, "image_id": ' + image_id + ', '
        '"category_id": ' + category_id + ', "bbox": [1, 2, 3, 4]}]}'
    )


# one digit more than int() reads from text (0 would mean no limit)
LONG_INT = "7" * (sys.get_int_max_str_digits() + 1)
# A way to break a file as a whole, so that it holds no JSON value: the words
# of the message after the file's name, and the file's bytes. The byte that
# is not UTF-8 is named by its place in the file.
FILE_BREAKS = {
    "latin-1": (
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 91",
        _payload_text(category_id="1").replace('"a"', '"café"').encode("latin-1"),
    ),
    "utf-16": (
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0",
        _payload_text().encode("utf-16"),
    ),
    "long image id": (
        f"invalid JSON: Exceeds the limit ({len(LONG_INT) - 1} digits) for integer string",
        _payload_text(image_id=LONG_INT).encode(),
    ),
    "long category id": (
        f"invalid JSON: Exceeds the limit ({len(LONG_INT) - 1} digits) for integer string",
        _payload_text(category_id=LONG_INT).encode(),
    ),
    "nested": (
        "invalid JSON: maximum recursion depth exceeded",
        b'{"images": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ),
    "syntax": ("invalid JSON at line 1 column 15: Expecting value", b'{"images": [1,]}'),
}


@pytest.mark.parametrize("name", FILE_BREAKS)
def test_files_without_a_json_value_name_the_file(tmp_path, name):
    words, data = FILE_BREAKS[name]
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    want = outcome(load_ref, path)
    assert want[0] == "format" and want[1].startswith(f"{path}: {words}"), want
    assert outcome(loaded, path) == want


@pytest.mark.parametrize("name", FILE_BREAKS)
def test_files_without_a_json_value_name_the_file_through_the_cli(tmp_path, capsys, name):
    # once as an input file, once as a --config file, which the command
    # line reads before any input
    words, data = FILE_BREAKS[name]
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    good = tmp_path / "good.json"
    good.write_text(_payload_text(), encoding="utf-8")
    kind = " ".join(words.split()[:2])
    for argv in (
        ["evaluate", "--ground-truth", str(path), "--predictions", str(good)],
        ["evaluate", "--ground-truth", str(good), "--predictions", str(good),
         "--config", str(path)],
    ):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {kind}") and "Traceback" not in err, err
    # the loader's own message, word for word
    assert main(["evaluate", "--ground-truth", str(path), "--predictions", str(good),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {words}")


# A way to break a point CSV: the words of the message after the file's
# name, and the file's bytes after its header. The byte that is not UTF-8
# lies past the first 8 KiB, which a text file decodes as one chunk.
POINT_BREAKS = {
    "latin-1": (
        "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 10022",
        b"a,1,2,1\n" * 1250 + b"caf\xe9,1,2,1\n",
    ),
    "long label": (
        "line 3: Exceeds the limit", b"a,1,2,1\na,1,2," + LONG_INT.encode() + b"\n",
    ),
    "nan": ("line 2: x and y must be finite numbers, got 'nan', '2'", b"a,nan,2,1\n"),
    "inf": ("line 3: x and y must be finite numbers, got '1', '-inf'", b"a,1,2,1\na,1,-inf,1\n"),
}


@pytest.mark.parametrize("name", POINT_BREAKS)
def test_point_files_that_cannot_be_read_name_the_file(tmp_path, capsys, name):
    words, rows = POINT_BREAKS[name]
    path = tmp_path / "points.csv"
    path.write_bytes(b"image_id,x,y,label\n" + rows)
    with pytest.raises(DatasetFormatError) as exc:
        load_annotations(path, fmt="point-csv")
    assert str(exc.value).startswith(f"{path}: {words}"), str(exc.value)
    argv = ["render", "--dataset", str(path), "--format", "point-csv",
            "--out", str(tmp_path / "svg")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
