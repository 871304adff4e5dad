"""Tests for scheme_by_name, the name -> encoding scheme factory."""

import pytest

from repro.encoding import SCHEME_NAMES, scheme_by_name
from repro.encoding.balanced import BalancedTreeEncodingScheme
from repro.encoding.bary import BaryHuffmanEncodingScheme
from repro.encoding.fixed_length import FixedLengthEncodingScheme
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.encoding.sgo import ScaledGrayEncodingScheme


class TestSchemeByName:
    def test_known_schemes(self):
        assert isinstance(scheme_by_name("huffman"), HuffmanEncodingScheme)
        assert isinstance(scheme_by_name("balanced"), BalancedTreeEncodingScheme)
        assert isinstance(scheme_by_name("fixed"), FixedLengthEncodingScheme)
        assert isinstance(scheme_by_name("sgo"), ScaledGrayEncodingScheme)
        assert isinstance(scheme_by_name("bary", alphabet_size=4), BaryHuffmanEncodingScheme)

    def test_name_normalisation(self):
        assert isinstance(scheme_by_name("  Huffman "), HuffmanEncodingScheme)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            scheme_by_name("quadtree")

    def test_unknown_scheme_error_lists_all_choices(self):
        """Regression: the error must name every recognised scheme, not just
        echo the bad input."""
        with pytest.raises(ValueError) as excinfo:
            scheme_by_name("hufman")  # typo
        message = str(excinfo.value)
        assert "'hufman'" in message
        for name in SCHEME_NAMES:
            assert name in message
        # Aliases are documented too, so operators learn the short forms.
        assert "bary" in message and "canonical" in message
