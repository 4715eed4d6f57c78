"""Early-exit model variants: side-output heads over the zoo's backbones.

DUET switches per *activation*; this module adds the per-*input* axis of
D²NN (arXiv:1701.00299) and epsilon-ResNet-style side outputs: an
:class:`EarlyExitModel` wraps one zoo backbone with confidence-thresholded
exit heads at chosen depths.  An input that is "easy" (confident at a
shallow head) leaves the network there and skips every deeper layer --
including the memory-bound FC classifier stack, which is where most of a
CNN's DRAM traffic lives.

Two selective-execution modes are modelled:

- **Early exit** (:func:`truncated_spec`): run the backbone up to the
  exit's attach layer, then a small global-pool + linear head.  The
  *final* exit is the unmodified backbone: :func:`truncated_spec` returns
  the original :class:`~repro.models.layer_spec.ModelSpec` object, so the
  full-depth path prices bit-identically to today's static costs.
- **Selective subpath** (:func:`reduced_width_spec`): keep the full depth
  but shrink every hidden layer's width by a fraction -- the
  reduced-width alternative for inputs that need depth but not capacity.

Only shapes matter (as everywhere in this reproduction), so exit heads
are :class:`~repro.models.layer_spec.FCSpec` shapes, not trained weights.
The registered variants live in :data:`EXIT_REGISTRY`; the tests
``tests/dynamic/test_costmodel.py::test_every_registered_backbone_is_priced``
and ``tests/dynamic/test_parity.py::test_this_suite_covers_the_whole_registry``
keep every registered backbone priced in :mod:`repro.dynamic.costmodel`
and covered by the parity suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.layer_spec import ConvSpec, FCSpec, ModelSpec, RNNSpec
from repro.models.registry import get_model_spec

__all__ = [
    "EXIT_REGISTRY",
    "FINAL_EXIT",
    "ExitPoint",
    "EarlyExitModel",
    "early_exit_model",
    "early_exit_variants",
    "reduced_width_spec",
    "truncated_spec",
]

#: Name of the implicit final exit (the unmodified full-depth backbone).
FINAL_EXIT = "full"

#: Number of classifier outputs every exit head projects to (ImageNet).
_HEAD_CLASSES = 1000


@dataclass(frozen=True)
class ExitPoint:
    """One side-output head hanging off a backbone layer.

    Attributes:
        name: exit label, unique within the model (e.g. ``"ee1"``).
        after_layer: name of the backbone layer whose output feeds the
            head (the exit runs every backbone layer up to and including
            it).
    """

    name: str
    after_layer: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("ExitPoint.name must be non-empty")
        if self.name == FINAL_EXIT:
            raise ValueError(
                f"ExitPoint.name {FINAL_EXIT!r} is reserved for the "
                "implicit full-depth exit"
            )
        if not self.after_layer:
            raise ValueError("ExitPoint.after_layer must be non-empty")


@dataclass(frozen=True)
class EarlyExitModel:
    """A zoo backbone plus its ordered side-output exits.

    Attributes:
        spec: the unmodified backbone :class:`ModelSpec`.
        exits: side exits in increasing depth order (the implicit final
            exit -- the full backbone -- is not listed; see
            :attr:`exit_names`).
    """

    spec: ModelSpec
    exits: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.exits:
            raise ValueError(
                f"EarlyExitModel for {self.spec.name!r} needs at least one "
                "side exit (a model without exits is just the static spec)"
            )
        names = [e.name for e in self.exits]
        if len(set(names)) != len(names):
            raise ValueError(f"exit names must be distinct, got {names}")
        indices = [self.layer_index(e.after_layer) for e in self.exits]
        if indices != sorted(indices):
            raise ValueError(
                f"exits of {self.spec.name!r} must be in increasing depth "
                f"order, got attach indices {indices}"
            )
        if indices and indices[-1] >= len(self.spec.layers) - 1:
            raise ValueError(
                f"the deepest side exit of {self.spec.name!r} attaches at "
                f"layer index {indices[-1]}; it must leave at least the "
                "final backbone layer to the full-depth path"
            )

    @property
    def name(self) -> str:
        """The backbone model name."""
        return self.spec.name

    @property
    def exit_names(self) -> tuple:
        """All exits in depth order, the final full-depth exit last."""
        return tuple(e.name for e in self.exits) + (FINAL_EXIT,)

    def layer_index(self, layer_name: str) -> int:
        """Index of ``layer_name`` in the backbone's layer list."""
        for index, layer in enumerate(self.spec.layers):
            if layer.name == layer_name:
                return index
        raise KeyError(
            f"model {self.spec.name!r} has no layer {layer_name!r}"
        )

    def exit_point(self, exit_name: str) -> ExitPoint | None:
        """The side :class:`ExitPoint` named, or None for the final exit."""
        if exit_name == FINAL_EXIT:
            return None
        for point in self.exits:
            if point.name == exit_name:
                return point
        raise KeyError(
            f"model {self.spec.name!r} has no exit {exit_name!r} "
            f"(have {list(self.exit_names)})"
        )

    def depth_fraction(self, exit_name: str) -> float:
        """Backbone-MAC fraction executed when leaving at ``exit_name``.

        The head's own (tiny) MACs are excluded: the fraction measures
        how much of the *backbone* an input traversed, which is the
        depth axis the confidence and quality models are defined on.
        The final exit is exactly 1.0.
        """
        point = self.exit_point(exit_name)
        if point is None:
            return 1.0
        index = self.layer_index(point.after_layer)
        prefix = sum(layer.macs for layer in self.spec.layers[: index + 1])
        return prefix / self.spec.total_macs


def _head_spec(point: ExitPoint, attach) -> FCSpec:
    """The exit head's shape: global-average-pool then linear.

    Pooling is free in the cost model (it is a tiny reduction next to
    any conv layer), so the head is one FC from the pooled channel
    vector -- or the raw feature vector for an FC attach layer -- to the
    classifier width.
    """
    if isinstance(attach, ConvSpec):
        in_features = attach.out_channels
    elif isinstance(attach, FCSpec):
        in_features = attach.out_features
    elif isinstance(attach, RNNSpec):
        in_features = attach.hidden_size
    else:  # pragma: no cover - the IR has exactly three layer kinds
        raise TypeError(f"unsupported attach layer {attach!r}")
    return FCSpec(f"{point.name}_head", in_features, _HEAD_CLASSES)


def truncated_spec(model: EarlyExitModel, exit_name: str) -> ModelSpec:
    """The :class:`ModelSpec` an input leaving at ``exit_name`` executes.

    For the final exit this returns the *original* backbone spec object
    -- same name, same layers -- so its cost model reports are
    bit-identical to the static model's (the degeneration contract the
    parity suite pins).  For a side exit it is the backbone prefix up to
    the attach layer plus the exit head.
    """
    point = model.exit_point(exit_name)
    if point is None:
        return model.spec
    index = model.layer_index(point.after_layer)
    attach = model.spec.layers[index]
    layers = list(model.spec.layers[: index + 1])
    layers.append(_head_spec(point, attach))
    return ModelSpec(
        f"{model.spec.name}@{point.name}", model.spec.domain, layers
    )


def reduced_width_spec(spec: ModelSpec, width: float) -> ModelSpec:
    """The selective-subpath variant: every hidden width scaled by
    ``width``.

    The network keeps its depth but sheds capacity: conv channels, FC
    features and RNN hidden sizes are scaled (floor 1 element), while
    the model's external interface -- the first layer's input geometry
    and the last layer's output width -- is preserved.  ``width=1.0``
    returns the original spec object unchanged.
    """
    if not 0.0 < width <= 1.0:
        raise ValueError(f"width must be in (0, 1], got {width}")
    if width >= 1.0:  # validated to (0, 1], so this is exactly 1.0
        return spec
    scale = lambda n: max(1, round(n * width))  # noqa: E731
    last = len(spec.layers) - 1
    layers = []
    for index, layer in enumerate(spec.layers):
        if isinstance(layer, ConvSpec):
            layers.append(
                ConvSpec(
                    layer.name,
                    layer.in_channels if index == 0 else scale(layer.in_channels),
                    layer.out_channels if index == last else scale(layer.out_channels),
                    kernel=layer.kernel,
                    stride=layer.stride,
                    padding=layer.padding,
                    in_h=layer.in_h,
                    in_w=layer.in_w,
                )
            )
        elif isinstance(layer, FCSpec):
            layers.append(
                FCSpec(
                    layer.name,
                    layer.in_features if index == 0 else scale(layer.in_features),
                    layer.out_features if index == last else scale(layer.out_features),
                )
            )
        elif isinstance(layer, RNNSpec):
            layers.append(
                RNNSpec(
                    layer.name,
                    layer.kind,
                    layer.input_size if index == 0 else scale(layer.input_size),
                    scale(layer.hidden_size),
                    layer.seq_len,
                )
            )
        else:  # pragma: no cover - the IR has exactly three layer kinds
            raise TypeError(f"unsupported layer {layer!r}")
    return ModelSpec(f"{spec.name}~w{width:g}", spec.domain, layers)


#: Registered early-exit variants: backbone name -> side-exit placements.
#: Every key here must carry a priced entry in
#: ``repro.dynamic.costmodel.EXIT_PRICING`` and be covered by the parity
#: suite (both checked by tier-1 tests).  CNN backbones only: the RNN language models have no
#: classifier stack to short-circuit, so per-input depth selection buys
#: them nothing (their width axis is covered by reduced_width_spec).
EXIT_REGISTRY: dict = {
    "alexnet": (
        ExitPoint("ee1", after_layer="conv3"),
        ExitPoint("ee2", after_layer="conv5"),
    ),
    "resnet18": (
        ExitPoint("ee1", after_layer="layer2_1_conv2"),
        ExitPoint("ee2", after_layer="layer3_1_conv2"),
    ),
    "vgg16": (
        ExitPoint("ee1", after_layer="conv3_3"),
        ExitPoint("ee2", after_layer="conv4_3"),
    ),
}


def early_exit_variants() -> tuple:
    """Backbone names with a registered early-exit variant, sorted."""
    return tuple(sorted(EXIT_REGISTRY))


def early_exit_model(model: str | ModelSpec) -> EarlyExitModel:
    """The registered :class:`EarlyExitModel` for a zoo backbone.

    Raises:
        KeyError: when the backbone has no registered exit variant.
    """
    spec = model if isinstance(model, ModelSpec) else get_model_spec(model)
    if spec.name not in EXIT_REGISTRY:
        raise KeyError(
            f"model {spec.name!r} has no registered early-exit variant "
            f"(have {list(early_exit_variants())})"
        )
    return EarlyExitModel(spec=spec, exits=tuple(EXIT_REGISTRY[spec.name]))
