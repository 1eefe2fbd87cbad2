"""Records, COCO-subset and point-CSV I/O, SVG rendering."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from boxrefine import datamodel
from boxrefine.datamodel import (
    Annotation,
    Dataset,
    DatasetFormatError,
    Detection,
    ImageRecord,
    PointLabel,
    annotation_set,
    load_annotations,
    materialize_points,
    points_to_boxes,
    prob_to_logit,
    render_svg,
    save_annotations,
    sigmoid,
)
from boxrefine.geometry import Box, BoxSet

from oracles import save_ref


def write_coco(tmp_path, payload, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


MINIMAL = {
    "images": [{"id": "a", "width": 100, "height": 80}],
    "categories": [{"id": 1, "name": "widget"}, {"id": 2, "name": "gadget"}],
    "annotations": [
        {"id": 1, "image_id": "a", "category_id": 1, "bbox": [10, 20, 30, 40]},
    ],
}


class TestScores:
    def test_sigmoid_logit_round_trip(self):
        for p in (0.001, 0.25, 0.5, 0.9, 0.999):
            assert sigmoid(prob_to_logit(p)) == pytest.approx(p, abs=1e-9)

    def test_prob_clamping(self):
        assert math.isfinite(prob_to_logit(0.0))
        assert math.isfinite(prob_to_logit(1.0))
        assert prob_to_logit(0.0) == pytest.approx(-prob_to_logit(1.0), abs=1e-9)

    def test_detection_constructors_agree(self):
        box = Box(0, 0, 10, 10)
        d1 = Detection.from_prob(box=box, label=1, prob=0.8)
        d2 = Detection.from_logit(box=box, label=1, logit=d1.logit)
        assert d2.prob == pytest.approx(0.8, abs=1e-12)

    def test_detection_rejects_bad_prob(self):
        with pytest.raises(ValueError):
            Detection(box=Box(0, 0, 1, 1), label=1, prob=1.5, logit=0.0)


class TestRecords:
    def test_annotation_rejects_unknown_provenance(self):
        with pytest.raises(ValueError):
            Annotation(box=Box(0, 0, 1, 1), label=1, provenance="guessed")

    def test_annotation_rejects_non_positive_label(self):
        with pytest.raises(ValueError):
            Annotation(box=Box(0, 0, 1, 1), label=0)

    def test_dataset_rejects_duplicate_image_ids(self):
        recs = [
            ImageRecord(image_id="a", width=10, height=10),
            ImageRecord(image_id="a", width=10, height=10),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(class_names=["c"], images=recs)

    def test_dataset_rejects_labels_beyond_vocabulary(self):
        rec = ImageRecord(
            image_id="a",
            width=10,
            height=10,
            annotations=[Annotation(box=Box(0, 0, 1, 1), label=3)],
        )
        with pytest.raises(ValueError, match="vocabulary"):
            Dataset(class_names=["c1", "c2"], images=[rec])

    def test_image_record_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ImageRecord(image_id="a", width=0, height=10)

    @pytest.mark.parametrize("size", [(math.nan, 10), (10, math.nan), (10, -math.inf),
                                      (0, 10), (10, -3)])
    def test_image_record_rejects_size_not_positive(self, size):
        with pytest.raises(ValueError, match="non-positive size"):
            ImageRecord("a", *size)

    @pytest.mark.parametrize("size", [(math.nan, 10), (10, math.inf), (0, 10), (10, -3)])
    def test_dataset_rejects_size_not_positive_and_finite(self, size):
        # a record changed after it was built, and a dataset built from columns
        rec = ImageRecord("a", 10, 10)
        rec.width, rec.height = size
        with pytest.raises(ValueError, match=r"not positive and finite .*'a:"):
            Dataset(class_names=["c"], images=[ImageRecord("ok", 5, 5), rec])
        with pytest.raises(ValueError, match=r"not positive and finite .*'a:"):
            Dataset.from_columns(["c"], ["ok", "a"], [(5, 5), size], annotation_set([(), ()]))


class TestCocoLoad:
    def test_bbox_xywh_conversion(self, tmp_path):
        ds = load_annotations(write_coco(tmp_path, MINIMAL))
        ann = ds.images[0].annotations[0]
        assert ann.box == Box(10, 20, 40, 60)
        assert ann.label == 1
        assert ann.provenance == "original"
        assert ds.class_names == ["widget", "gadget"]

    def test_empty_annotations_allowed(self, tmp_path):
        payload = dict(MINIMAL, annotations=[])
        ds = load_annotations(write_coco(tmp_path, payload))
        assert ds.images[0].annotations == []
        assert ds.images[0].detections is None

    def test_score_entries_become_detections(self, tmp_path):
        payload = dict(MINIMAL)
        payload = json.loads(json.dumps(MINIMAL))
        payload["annotations"].append(
            {"id": 2, "image_id": "a", "category_id": 2, "bbox": [0, 0, 10, 10], "score": 0.75}
        )
        ds = load_annotations(write_coco(tmp_path, payload))
        rec = ds.images[0]
        assert len(rec.annotations) == 1
        assert len(rec.detections) == 1
        d = rec.detections[0]
        assert d.prob == 0.75
        assert d.logit == pytest.approx(prob_to_logit(0.75), abs=1e-12)

    def test_missing_logits_equal_prob_to_logit(self, tmp_path):
        rng = np.random.default_rng(17)
        probs = [0.0, 1.0, 1e-7, 1.0 - 1e-7, 0.5, -0.0, *rng.uniform(0.0, 1.0, 400).tolist()]
        payload = json.loads(json.dumps(MINIMAL))
        payload["annotations"] = [
            {"id": k, "image_id": "a", "category_id": 1, "bbox": [0, 0, 10, 10], "score": p}
            for k, p in enumerate(probs)
        ]
        # entries with a logit of their own keep it
        for entry in payload["annotations"][6::7]:
            entry["logit"] = 2.5
        ds = load_annotations(write_coco(tmp_path, payload))
        assert ds.detections.logits.tolist() == [
            2.5 if "logit" in entry else prob_to_logit(entry["score"])
            for entry in payload["annotations"]
        ]

    def test_boxes_clipped_to_image(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["annotations"] = [
            {"id": 1, "image_id": "a", "category_id": 1, "bbox": [-5, -5, 200, 40]}
        ]
        ds = load_annotations(write_coco(tmp_path, payload))
        assert ds.images[0].annotations[0].box == Box(0, 0, 100, 35)

    def test_invalid_json_names_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"images": [,]}', encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_annotations(path)

    def test_negative_bbox_size_names_annotation(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["annotations"] = [
            {"id": 77, "image_id": "a", "category_id": 1, "bbox": [5, 5, -2, 4]}
        ]
        with pytest.raises(DatasetFormatError, match="77"):
            load_annotations(write_coco(tmp_path, payload))

    def test_unknown_image_id_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["annotations"][0]["image_id"] = "nope"
        with pytest.raises(DatasetFormatError, match="nope"):
            load_annotations(write_coco(tmp_path, payload))

    def test_unknown_category_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["annotations"][0]["category_id"] = 9
        with pytest.raises(DatasetFormatError, match="category"):
            load_annotations(write_coco(tmp_path, payload))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_annotations(tmp_path / "absent.json")

    def test_unknown_format_rejected(self, tmp_path):
        path = write_coco(tmp_path, MINIMAL)
        with pytest.raises(ValueError, match="format"):
            load_annotations(path, fmt="yaml")


NON_FINITE = (math.nan, math.inf, -math.inf)


def coco_with_detection() -> dict:
    payload = json.loads(json.dumps(MINIMAL))
    payload["annotations"].append(
        {"id": 2, "image_id": "a", "category_id": 2, "bbox": [0, 0, 10, 10],
         "bbox_xyxy": [0, 0, 10, 10], "score": 0.75, "logit": 1.1}
    )
    return payload


class TestMalformedInput:
    def test_non_finite_numbers_rejected_naming_entry_and_field(self, tmp_path):
        # every numeric field, every non-finite value, at a seeded position
        rng = np.random.default_rng(31)
        for case in range(60):
            payload = coco_with_detection()
            bad = NON_FINITE[int(rng.integers(len(NON_FINITE)))]
            field = ("bbox", "bbox_xyxy", "score", "logit", "width", "height")[case % 6]
            if field in ("width", "height"):
                payload["images"][0][field] = bad
                where = "image a"
            else:
                entry = payload["annotations"][1]
                if field == "bbox":
                    del entry["bbox_xyxy"]  # otherwise the corners are read instead
                if field in ("bbox", "bbox_xyxy"):
                    entry[field][int(rng.integers(4))] = bad
                else:
                    entry[field] = bad
                where = "annotation 2"
            path = write_coco(tmp_path, payload, name=f"case_{case}.json")
            with pytest.raises(DatasetFormatError) as info:
                load_annotations(path)
            message = str(info.value)
            assert str(path) in message
            assert where in message
            assert repr(field) in message

    def test_non_numeric_coordinate_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["annotations"][0]["bbox"][2] = None
        with pytest.raises(DatasetFormatError, match="annotation 1: 'bbox'"):
            load_annotations(write_coco(tmp_path, payload))

    @pytest.mark.parametrize("key", ["images", "categories", "annotations"])
    def test_non_object_entry_rejected(self, tmp_path, key):
        rng = np.random.default_rng(32)
        for value in (5, "x", None, [1, 2], 2.5):
            payload = json.loads(json.dumps(MINIMAL))
            entries = payload[key]
            entries.insert(int(rng.integers(len(entries) + 1)), value)
            path = write_coco(tmp_path, payload)
            with pytest.raises(DatasetFormatError, match="entry|must be an object") as info:
                load_annotations(path)
            assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "case, where, field",
        [
            ("annotation image_id", "annotation 1", "image_id"),
            ("annotation category_id", "annotation 1", "category_id"),
            ("category id", "category entry 1", "'id'"),
            ("image id", "image entry 1", "'id'"),
        ],
    )
    def test_list_or_object_ids_rejected(self, tmp_path, case, where, field):
        payload = json.loads(json.dumps(MINIMAL))
        if case == "annotation image_id":
            payload["annotations"][0]["image_id"] = ["a"]
        elif case == "annotation category_id":
            payload["annotations"][0]["category_id"] = [1]
        elif case == "category id":
            payload["categories"][0]["id"] = [1]
            payload["annotations"][0]["category_id"] = [1]
        else:
            payload["images"][0]["id"] = {"a": 1}
        path = write_coco(tmp_path, payload)
        with pytest.raises(DatasetFormatError) as info:
            load_annotations(path)
        message = str(info.value)
        assert str(path) in message and where in message and field in message

    def test_incomparable_category_ids_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["categories"][1]["id"] = "two"
        with pytest.raises(DatasetFormatError, match="category ids"):
            load_annotations(write_coco(tmp_path, payload))


def random_dataset(rng: np.random.Generator, max_images: int = 4) -> Dataset:
    n_classes = int(rng.integers(1, 4))
    images = []
    for i in range(int(rng.integers(1, max_images + 1))):
        width = int(rng.integers(50, 600))
        height = int(rng.integers(50, 600))
        anns = []
        dets = None
        for _ in range(int(rng.integers(0, 6))):
            xs = sorted(rng.uniform(0, width, 2).tolist())
            ys = sorted(rng.uniform(0, height, 2).tolist())
            anns.append(
                Annotation(
                    box=Box(xs[0], ys[0], xs[1], ys[1]),
                    label=int(rng.integers(1, n_classes + 1)),
                    provenance=("original", "corrected", "mined")[
                        int(rng.integers(3))
                    ],
                )
            )
        if rng.random() < 0.6:
            dets = []
            for _ in range(int(rng.integers(0, 5))):
                xs = sorted(rng.uniform(0, width, 2).tolist())
                ys = sorted(rng.uniform(0, height, 2).tolist())
                dets.append(
                    Detection.from_logit(
                        box=Box(xs[0], ys[0], xs[1], ys[1]),
                        label=int(rng.integers(1, n_classes + 1)),
                        logit=float(rng.normal(0.0, 3.0)),
                    )
                )
        images.append(
            ImageRecord(
                image_id=f"img/{i}",
                width=width,
                height=height,
                annotations=anns,
                detections=dets,
            )
        )
    names = [f"class {i}" for i in range(1, n_classes + 1)]
    return Dataset(class_names=names, images=images)


    def test_image_size_must_be_whole_number(self, tmp_path):
        # a pixel count: true once loaded as width 1, 512.7 as 512
        rng = np.random.default_rng(33)
        for case in range(24):
            payload = coco_with_detection()
            field = ("width", "height")[case % 2]
            bad = (True, 512.7, 100.25, 0.5 + int(rng.integers(1, 600)))[case % 4]
            payload["images"][0][field] = bad
            path = write_coco(tmp_path, payload, name=f"case_{case}.json")
            with pytest.raises(DatasetFormatError) as info:
                load_annotations(path)
            message = str(info.value)
            assert str(path) in message
            assert "image a" in message
            assert repr(field) in message

    def test_integral_float_image_size_accepted(self, tmp_path):
        payload = coco_with_detection()
        payload["images"][0].update(width=100.0, height=80.0)
        rec = load_annotations(write_coco(tmp_path, payload)).images[0]
        assert (rec.width, rec.height) == (100, 80)
        assert type(rec.width) is int and type(rec.height) is int


class TestRoundTrip:
    def test_save_load_identity_on_random_datasets(self, tmp_path):
        rng = np.random.default_rng(21)
        for case in range(40):
            ds = random_dataset(rng)
            path = tmp_path / f"ds_{case}.json"
            save_annotations(ds, path)
            loaded = load_annotations(path)
            assert loaded.class_names == ds.class_names
            assert len(loaded.images) == len(ds.images)
            for a, b in zip(loaded.images, ds.images):
                assert a.image_id == b.image_id
                assert (a.width, a.height) == (b.width, b.height)
                assert a.annotations == b.annotations
                assert (a.detections or []) == (b.detections or [])

    def test_save_is_deterministic(self, tmp_path):
        ds = random_dataset(np.random.default_rng(22))
        save_annotations(ds, tmp_path / "one.json")
        save_annotations(ds, tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (
            tmp_path / "two.json"
        ).read_bytes()

    def test_plain_coco_bbox_still_readable(self, tmp_path):
        # a file without the corner field (foreign producer) must load fine
        ds = load_annotations(write_coco(tmp_path, MINIMAL))
        assert ds.images[0].annotations[0].box == Box(10, 20, 40, 60)


ODD_TEXT = ("plain", "ñandú", 'say "hi"', "back\\slash", "tab\there", "🐱 cat", "")


def awkward_dataset(rng: np.random.Generator) -> Dataset:
    """``random_dataset`` plus what the writer must escape or keep as ints."""
    ds = random_dataset(rng, max_images=6)
    for k, rec in enumerate(ds.images):
        rec.image_id = f"{ODD_TEXT[int(rng.integers(len(ODD_TEXT)))]}/{k}"
        if rng.random() < 0.5:
            # clipping returns the int image size as a coordinate
            x1 = float(rng.uniform(0, rec.width / 2))
            box = Box(x1, -5.0, x1 + rec.width, rec.height + 0.5).clip(
                rec.width, rec.height
            )
            assert type(box.x2) is int and type(box.y2) is int
            rec.annotations.append(Annotation(box=box, label=1, provenance="mined"))
        if rng.random() < 0.2:
            rec.annotations, rec.detections = [], None
    ds.class_names = [
        f"{ODD_TEXT[int(rng.integers(len(ODD_TEXT)))]} {i}"
        for i in range(1, ds.num_classes + 1)
    ]
    return ds


class TestWriterBytes:
    """``save_annotations`` writes exactly what ``json.dumps(indent=2)`` writes."""

    def check(self, tmp_path, ds):
        path = tmp_path / "out.json"
        save_annotations(ds, path)
        assert path.read_bytes() == save_ref(ds).encode("utf-8")

    def test_seeded_datasets(self, tmp_path):
        rng = np.random.default_rng(42)
        for _ in range(80):
            self.check(tmp_path, awkward_dataset(rng))

    def test_empty_datasets(self, tmp_path):
        self.check(tmp_path, Dataset(class_names=[], images=[]))
        self.check(tmp_path, Dataset(class_names=["a"], images=[]))
        self.check(
            tmp_path,
            Dataset(
                class_names=["a"],
                images=[ImageRecord(image_id="x", width=5, height=7, detections=[])],
            ),
        )

    def test_values_json_formats_itself(self, tmp_path):
        # types the templates do not format go through json.dumps unchanged
        rec = ImageRecord(
            image_id="x",
            width=64,
            height=48,
            annotations=[
                Annotation(box=Box(np.float64(1.5), 2, np.float64(3.25), 4.0), label=True),
                Annotation(box=Box(0.0, 0.0, math.inf, 1e300), label=1),
            ],
            detections=[Detection.from_logit(box=Box(1, 2, 3, 4), label=1, logit=math.inf)],
        )
        others = [
            ImageRecord(image_id=7, width=10, height=10,
                        annotations=[Annotation(box=Box(0, 0, 1, 1), label=1)]),
            ImageRecord(image_id=("nested", 1), width=10, height=10,
                        annotations=[Annotation(box=Box(0, 0, 1, 1), label=1)]),
        ]
        self.check(tmp_path, Dataset(class_names=["a"], images=[rec, *others]))


    def test_rows_converted_in_blocks(self, tmp_path, monkeypatch):
        # blocks of 3 rows: an image's rows start and end anywhere in a block
        monkeypatch.setattr(datamodel, "_WRITE_ROWS", 3)
        rng = np.random.default_rng(43)
        for _ in range(40):
            self.check(tmp_path, awkward_dataset(rng))


def traced_peak(fn) -> int:
    """The peak of the memory Python and numpy allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """What reading and writing a file holds beyond the file's own data."""

    def test_writer_holds_a_small_part_of_the_file(self, tmp_path):
        # 400 images of 20 annotations and 30 detections: 20,000 entries
        rng = np.random.default_rng(61)
        images, anns, dets = 400, 20, 30
        sizes = [(512, 384)] * images

        def boxes(n: int) -> np.ndarray:
            x1y1 = rng.uniform(-10.0, 500.0, (n, 2))
            return np.hstack((x1y1, x1y1 + rng.uniform(1.0, 60.0, (n, 2))))

        truth = BoxSet(boxes(images * anns), np.arange(images + 1) * anns,
                       labels=rng.integers(1, 4, images * anns),
                       provenance=rng.integers(0, 3, images * anns).astype(np.int8))
        found = BoxSet(boxes(images * dets), np.arange(images + 1) * dets,
                       labels=rng.integers(1, 4, images * dets),
                       probs=rng.uniform(0.0, 1.0, images * dets),
                       logits=rng.normal(0.0, 3.0, images * dets))
        ds = Dataset.from_columns(["a", "b", "c"], [f"img{g}" for g in range(images)], sizes,
                                  truth.clip(sizes), found.clip(sizes))
        path = tmp_path / "big.json"
        save_annotations(ds, path)  # the set's cached columns are read once
        peak = traced_peak(lambda: save_annotations(ds, path))
        # once the entries, their text and its bytes were all held: 3.7 times the file
        assert peak < path.stat().st_size / 10, (peak, path.stat().st_size)

    def test_loader_holds_no_more_than_the_parse(self, tmp_path):
        # the size of the wide benchmark's detections: 2,000 images, 18,000 entries
        rng = np.random.default_rng(62)
        images = [{"id": f"img{g}", "width": 512, "height": 512} for g in range(2000)]
        entries = [
            {"id": k + 1, "image_id": f"img{k % 2000}", "category_id": int(label),
             "bbox": [round(v, 2) for v in box], "score": round(score, 4)}
            for k, (box, label, score) in enumerate(zip(
                rng.uniform(0.0, 400.0, (18000, 4)).tolist(), rng.integers(1, 5, 18000),
                rng.uniform(0.0, 1.0, 18000).tolist(),
            ))
        ]
        categories = [{"id": c, "name": f"class_{c}"} for c in range(1, 5)]
        path = write_coco(tmp_path, {"images": images, "categories": categories,
                                     "annotations": entries})
        del images, entries
        load_annotations(path)
        parse = traced_peak(lambda: json.loads(path.read_text(encoding="utf-8")))
        load = traced_peak(lambda: load_annotations(path))
        # while the parsed file was held to the end: 1.25 times the parse
        assert load <= parse * 1.05, (load, parse)


class TestPoints:
    def test_point_becomes_square(self):
        anns = points_to_boxes([PointLabel(100.0, 100.0, 1)], 60.0)
        assert anns[0].box == Box(70, 70, 130, 130)
        assert anns[0].provenance == "original"

    def test_border_point_clipped(self):
        anns = points_to_boxes([PointLabel(10.0, 10.0, 1)], 60.0, image_size=(512, 512))
        assert anns[0].box == Box(0, 0, 40, 40)

    def test_interior_points_keep_full_size(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = float(rng.uniform(30, 482))
            y = float(rng.uniform(30, 482))
            (ann,) = points_to_boxes([PointLabel(x, y, 1)], 60.0, image_size=(512, 512))
            assert ann.box.width == pytest.approx(60.0, abs=1e-9)
            assert ann.box.height == pytest.approx(60.0, abs=1e-9)

    def test_non_positive_side_rejected(self):
        with pytest.raises(ValueError):
            points_to_boxes([PointLabel(1.0, 1.0, 1)], 0.0)

    def test_point_csv_load_and_materialize(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text(
            "image_id,x,y,label\n"
            "t1,100,100,1\n"
            "t1,200,50,2\n"
            "t2,30,400,1\n",
            encoding="utf-8",
        )
        ds = load_annotations(path, fmt="point-csv", image_size=(512, 512))
        assert ds.image_ids() == ["t1", "t2"]
        assert ds.class_names == ["class_1", "class_2"]
        assert len(ds.images[0].points) == 2
        boxed = materialize_points(ds, 60.0)
        assert boxed.images[0].annotations[0].box == Box(70, 70, 130, 130)
        assert boxed.images[0].points == []

    def test_point_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x,y,cls\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="header"):
            load_annotations(path, fmt="point-csv")

    def test_point_csv_bad_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("image_id,x,y,label\nt1,1,2,1\nt1,oops,2,1\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_annotations(path, fmt="point-csv")


class TestRenderSvg:
    def test_empty_record_has_no_rects(self):
        rec = ImageRecord(image_id="a", width=100, height=100)
        svg = render_svg(rec)
        assert svg.count("<rect") == 0
        assert "<svg" in svg and "</svg>" in svg

    def test_rect_count_matches_box_count(self):
        rec = ImageRecord(
            image_id="a",
            width=100,
            height=100,
            annotations=[
                Annotation(box=Box(0, 0, 10, 10), label=1),
                Annotation(box=Box(20, 20, 30, 30), label=1, provenance="corrected"),
                Annotation(box=Box(40, 40, 50, 50), label=1, provenance="mined"),
            ],
            detections=[Detection.from_prob(box=Box(5, 5, 9, 9), label=1, prob=0.9)],
        )
        truth = [Annotation(box=Box(1, 1, 9, 9), label=1)]
        svg = render_svg(rec, ground_truth=truth)
        assert svg.count("<rect") == 5

    def test_layer_filtering_and_colors(self):
        rec = ImageRecord(
            image_id="a",
            width=100,
            height=100,
            annotations=[
                Annotation(box=Box(0, 0, 10, 10), label=1),
                Annotation(box=Box(20, 20, 30, 30), label=1, provenance="mined"),
            ],
        )
        svg = render_svg(rec, layers=("mined",))
        assert svg.count("<rect") == 1
        assert 'stroke="blue"' in svg
        assert 'stroke="red"' not in svg

    def test_unknown_layer_rejected(self):
        rec = ImageRecord(image_id="a", width=10, height=10)
        with pytest.raises(ValueError, match="unknown layers"):
            render_svg(rec, layers=("sepia",))

    def test_class_names_and_escaping(self):
        rec = ImageRecord(
            image_id="a<b",
            width=100,
            height=100,
            annotations=[Annotation(box=Box(0, 0, 10, 10), label=1)],
        )
        svg = render_svg(rec, class_names=["cat & dog"])
        assert "cat &amp; dog" in svg
        assert "a&lt;b" in svg

    def test_deterministic_output(self):
        rec = ImageRecord(
            image_id="a",
            width=64,
            height=64,
            annotations=[Annotation(box=Box(1.5, 2.25, 30.125, 40.5), label=1)],
        )
        assert render_svg(rec) == render_svg(rec)
