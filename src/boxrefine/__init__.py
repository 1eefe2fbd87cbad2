"""Detector-agnostic refinement of noisy and incomplete bounding-box annotations.

The toolkit corrects displaced target boxes against model predictions, mines
annotations missing from sparse labels, simulates annotation noise for
benchmarking, evaluates detection quality, and runs a desk-scale surrogate of
the teacher-student training loop. See the individual modules:

- ``geometry``: boxes, overlap distances, NMS
- ``datamodel``: datasets in columns, COCO-subset and point-CSV I/O, SVG rendering
- ``noise``: displacement, sparsification, superfluous-box injection
- ``correction``: iterative box correction and label mining
- ``evaluation``: AP50, quality statistics, error breakdown
- ``simloop``: simulated teacher-student refinement loop
- ``cli``: the command line's front: its top-level parser and entry point
- ``commands``: each subcommand's options, configuration and run

Importing the package loads none of them: each name below is imported from
its module the first time it is read, so a CLI process loads only the
modules its subcommand runs. ``--help`` and a top-level usage error compile
and load ``cli`` alone; a subcommand adds ``commands`` and the modules it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the master seed of a run that names none (NoiseConfig's, synthesize_truth's
# and the CLI's), and the sparsity that keeps one annotation per image. They
# live here, which every process loads, so that a subcommand that draws no
# noise reads them without loading ``noise``
DEFAULT_SEED = 0
SPARSITY_EXTREME = "extreme"

_EXPORTS = {
    "correction": ("CorrectionConfig", "CorrectionReport", "correct_boxes", "correct_targets",
                   "mine_labels"),
    "datamodel": ("Annotation", "Dataset", "Detection", "ImageRecord", "load_annotations",
                  "save_annotations"),
    "evaluation": ("ErrorBreakdown", "EvalResult", "QualityStats", "error_breakdown",
                   "evaluate_ap50", "quality_stats"),
    "geometry": ("Box", "center_distance_normalized", "giou_distance", "iou",
                 "iou_distance", "nms"),
    "noise": ("NoiseConfig", "SuperfluousConfig", "corrupt_dataset", "displace_boxes",
              "inject_superfluous", "sparsify"),
    "simloop": ("EmaState", "LoopConfig", "SimDetectorParams", "ema_update", "run_loop",
                "simulate_predictions"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name: str) -> object:
    # the modules above stay reachable as attributes, as when this imported them
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
