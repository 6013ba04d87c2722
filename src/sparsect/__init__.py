"""Sparse-view CT reconstruction: classical operators plus a stage-unfolded
dual-domain network with multigrid-style learned correction."""

from .geometry import (
    GeometryError,
    Image,
    ScanGeometry,
    Sinogram,
    ViewSubset,
    full_subset,
    geometry_preset,
    make_geometry,
    perturb_geometry,
    resolve_geometry,
    scaled_preset,
    sparse_subset,
)
from .projector import JosephProjector, back_project, forward_project
from .fbp import FbpOperator, ViewUpsampler, upsample_views
from .phantoms import EllipseCloudSpec, disk, phantom_batch, random_ellipses, shepp_logan
from .correction import CorrectionConfig, init_params, param_count
from .refine import CHANNEL_ORDER, VARIANTS, OperatorBundle, stack_width, variant_groups
from .model import PnpTrajectory, ReconNet
from .losses import LossConfig, total_loss, unsupervised_loss
from .metrics import HuMap, psnr, rmse_hu, ssim_value
from .optim import Adam, AdamConfig
from .fista import FistaConfig, FistaResult, fista_tv, tune_lambda, tv_prox, tv_value
from .training import TrainConfig, TrainResult, finetune_unsupervised, train_loop
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointMismatchError,
    build_model,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from .tensorio import (
    DatasetManifest,
    TensorFormatError,
    load_manifest,
    load_tensor,
    save_tensor,
    write_manifest,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AdamConfig",
    "CHANNEL_ORDER",
    "Checkpoint",
    "CheckpointError",
    "CheckpointMismatchError",
    "CorrectionConfig",
    "DatasetManifest",
    "EllipseCloudSpec",
    "FbpOperator",
    "FistaConfig",
    "FistaResult",
    "GeometryError",
    "HuMap",
    "Image",
    "JosephProjector",
    "LossConfig",
    "OperatorBundle",
    "PnpTrajectory",
    "ReconNet",
    "ScanGeometry",
    "Sinogram",
    "TensorFormatError",
    "TrainConfig",
    "TrainResult",
    "VARIANTS",
    "ViewSubset",
    "ViewUpsampler",
    "back_project",
    "build_model",
    "disk",
    "finetune_unsupervised",
    "fista_tv",
    "forward_project",
    "full_subset",
    "geometry_preset",
    "init_params",
    "load_checkpoint",
    "load_manifest",
    "load_tensor",
    "make_geometry",
    "param_count",
    "perturb_geometry",
    "phantom_batch",
    "psnr",
    "random_ellipses",
    "resolve_geometry",
    "restore_model",
    "rmse_hu",
    "save_checkpoint",
    "save_tensor",
    "scaled_preset",
    "shepp_logan",
    "sparse_subset",
    "ssim_value",
    "stack_width",
    "total_loss",
    "train_loop",
    "tune_lambda",
    "tv_prox",
    "tv_value",
    "unsupervised_loss",
    "upsample_views",
    "variant_groups",
    "write_manifest",
]
