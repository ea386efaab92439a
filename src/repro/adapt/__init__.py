"""``repro.adapt`` — domain-adaptation algorithms.

* :class:`LDBNAdapt` — the paper's LD-BN-ADAPT (BN statistics refresh +
  single-step entropy descent on gamma/beta);
* :class:`ConvAdapt` / :class:`FCAdapt` — the Sec. III parameter-group
  ablations;
* :class:`CarlaneSOTA` — the offline SGPCS-style baseline (k-means
  embedding alignment + pseudo-labels + full retraining);
* :class:`NoAdapt` — the un-adapted source model;
* :class:`BNStateSnapshot` — a model's BN state as one block, what a
  compiled LD-BN-ADAPT step reads and writes; the model's own (its
  :class:`BNLayout`'s ``home``) is viewed by its BN modules.

``LDBNAdapt`` with ``stats_mode="replace"`` and entropy loss is the
structured-output analogue of Tent [Wang et al., ICLR 2021], which the
paper cites as the image-classification precursor.
"""

from .base import (
    AdaptResult,
    Adapter,
    NoAdapt,
    freeze_all,
    freeze_except,
    set_bn_training,
)
from .bn_adapt import LDBNAdapt, LDBNAdaptConfig
from .bn_state import BNLayout, BNStateSnapshot
from .entropy import entropy_loss
from .kmeans import (
    KMeansResult,
    frame_signature,
    kmeans,
    kmeans_plus_plus_init,
    nearest_signature,
    signature_distance,
)
from .sota import CarlaneSOTA, SOTAConfig, SOTAReport
from .variants import ConvAdapt, FCAdapt, VariantConfig

__all__ = [
    "Adapter",
    "AdaptResult",
    "NoAdapt",
    "freeze_all",
    "freeze_except",
    "set_bn_training",
    "entropy_loss",
    "LDBNAdapt",
    "LDBNAdaptConfig",
    "BNLayout",
    "BNStateSnapshot",
    "ConvAdapt",
    "FCAdapt",
    "VariantConfig",
    "CarlaneSOTA",
    "SOTAConfig",
    "SOTAReport",
    "kmeans",
    "kmeans_plus_plus_init",
    "KMeansResult",
    "frame_signature",
    "signature_distance",
    "nearest_signature",
]
