import math
import re
from dataclasses import fields

import pytest

from chirplink.config import KeyRateConfig, StabilityConfig
from chirplink.errors import PreconditionError
from chirplink.laser import LaserParams
from chirplink.optics import ChannelParams, DetectorParams, InterferometerParams
from chirplink.source import SourceConfig

RECORDS = (
    SourceConfig,
    InterferometerParams,
    DetectorParams,
    ChannelParams,
    KeyRateConfig,
    StabilityConfig,
    LaserParams,
)


@pytest.mark.parametrize(
    "record, name",
    [(record, f.name) for record in RECORDS for f in fields(record)],
    ids=lambda x: x.__name__ if isinstance(x, type) else x,
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_field_refused_by_name(record, name, bad):
    # NaN passes every range check, and inf passes the one-sided ones: a
    # record built in Python, not parsed from a config, is refused at
    # construction with the field named
    with pytest.raises(PreconditionError, match=rf"^{re.escape(name)} must be finite, got "):
        record(**{name: bad})
