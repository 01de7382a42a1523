import numpy as np
import pytest

from craft import nn


@pytest.fixture(scope="session")
def default_dataset():
    return nn.make_dataset()


@pytest.fixture(scope="session")
def default_train_result(default_dataset):
    return nn.train(default_dataset)


@pytest.fixture(scope="session")
def fp32_model(default_train_result):
    return default_train_result.model


@pytest.fixture(scope="session")
def u8_model(fp32_model):
    return nn.quantize(fp32_model)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

