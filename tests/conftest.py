from __future__ import annotations

import pytest

from dualner.corpus import LabelInventory, generate_synthetic
from dualner.encoder import EncoderConfig
from dualner.heads import HeadConfig
from dualner.subtok import train_bpe


@pytest.fixture(scope="session")
def inventory():
    return LabelInventory.from_types(["Facility", "Instrument", "SkyObject"])


@pytest.fixture(scope="session")
def small_corpus(inventory):
    return generate_synthetic(7, 20, inventory)


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    return train_bpe(small_corpus, 200)


@pytest.fixture(scope="session")
def desk_encoder_cfg():
    return EncoderConfig(hidden_dim=64, n_layers=2, n_heads=4, ffn_dim=128)


@pytest.fixture(scope="session")
def desk_head_cfg():
    return HeadConfig()
