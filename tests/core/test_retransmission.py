"""AP retransmission policies."""

import pytest

from repro.core.retransmission import FixedRetransmission
from repro.errors import ConfigurationError
from repro.mac.frames import NodeId

CAR = NodeId(1)


class TestFixedRetransmission:
    def test_constant_copies(self):
        policy = FixedRetransmission(3)
        assert policy.copies_for(CAR, 1) == 3
        assert policy.copies_for(CAR, 999) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FixedRetransmission(0)
