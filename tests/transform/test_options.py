"""The shared option vocabulary and its rejection of unknown spellings."""

import re
import warnings

import pytest

from repro.lang.errors import TransformError
from repro.transform.options import (
    LAYOUTS,
    TRANSFORMS,
    VARIANTS,
    normalize_layout,
    normalize_transform,
    normalize_variant,
)


def _choices(value: str, canonical: tuple) -> str:
    """Regex for the rejection message: the bad value, then every choice."""
    listed = ", ".join(repr(c) for c in canonical)
    return re.escape(f"{value!r} (choose from {listed})")


class TestCanonical:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variants_pass_through_silently(self, variant):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_variant(variant) == variant

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layouts_pass_through_silently(self, layout):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_layout(layout) == layout

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_transforms_pass_through_silently(self, transform):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_transform(transform) == transform

    def test_none_transform_means_none(self):
        assert normalize_transform(None) == "none"

    def test_case_and_whitespace_insensitive(self):
        assert normalize_variant("  DONE ") == "done"
        assert normalize_layout("Block") == "block"


class TestDeprecatedSpellings:
    """The 1.x alias spellings are gone: each is rejected by name, and the
    error lists the canonical choices (the old replacement among them)."""

    @pytest.mark.parametrize("legacy, canonical", [
        ("fig10", "general"),
        ("fig11", "optimized"),
        ("fig12", "done"),
        ("best", "auto"),
    ])
    def test_variant_aliases_warn(self, legacy, canonical):
        with pytest.raises(TransformError, match=_choices(legacy, VARIANTS)):
            normalize_variant(legacy)
        assert canonical in VARIANTS

    @pytest.mark.parametrize("legacy, canonical", [
        ("cm2", "block"),
        ("cut-and-stack", "cyclic"),
        ("decmpp", "cyclic"),
    ])
    def test_layout_aliases_warn(self, legacy, canonical):
        with pytest.raises(TransformError, match=_choices(legacy, LAYOUTS)):
            normalize_layout(legacy)
        assert canonical in LAYOUTS

    @pytest.mark.parametrize("legacy, canonical", [
        ("flattened", "flatten"),
        ("naive", "simdize"),
        ("coalesced", "coalesce"),
    ])
    def test_transform_aliases_warn(self, legacy, canonical):
        with pytest.raises(TransformError, match=_choices(legacy, TRANSFORMS)):
            normalize_transform(legacy)
        assert canonical in TRANSFORMS


class TestRejections:
    def test_unknown_variant(self):
        with pytest.raises(TransformError, match="unknown flattening variant"):
            normalize_variant("figure99")

    def test_unknown_layout(self):
        with pytest.raises(TransformError, match="unknown layout"):
            normalize_layout("diagonal")

    def test_unknown_transform(self):
        with pytest.raises(TransformError, match="unknown transform"):
            normalize_transform("unroll")

    def test_non_string_rejected(self):
        with pytest.raises(TransformError, match="must be a string"):
            normalize_variant(12)
