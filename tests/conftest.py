import pytest

import retword.cli
from corpus import (
    constant_length_three,
    dominant_four_pair,
    fibonacci,
    thue_morse,
    tribonacci,
)


@pytest.fixture(scope="session")
def fib():
    return fibonacci()


@pytest.fixture(scope="session")
def morse():
    return thue_morse()


@pytest.fixture(scope="session")
def trib():
    return tribonacci()


@pytest.fixture(scope="session")
def quad_pair():
    return dominant_four_pair()


@pytest.fixture(scope="session")
def const3():
    return constant_length_three()


@pytest.fixture(scope="session")
def corpus(fib, morse, trib, quad_pair):
    return {
        "fibonacci": fib,
        "thue_morse": morse,
        "tribonacci": trib,
        "quad": quad_pair[0],
    }


@pytest.fixture(autouse=True)
def cold_session():
    """Each test starts with no parse in the CLI's session, so a test that
    counts the work of one command counts that of a cold one."""
    retword.cli._SESSION.clear()
