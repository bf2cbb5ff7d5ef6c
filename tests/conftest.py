import json
from importlib import resources

import pytest


@pytest.fixture(scope="session")
def schemas():
    """The JSON schemas shipped under logdop/schemas, keyed by the format tag
    each pins in ``properties.format.const``."""
    by_tag = {}
    for entry in resources.files("logdop").joinpath("schemas").iterdir():
        schema = json.loads(entry.read_text(encoding="utf-8"))
        tag = schema.get("properties", {}).get("format", {}).get("const")
        assert tag is not None, f"{entry.name} pins no format tag"
        assert tag not in by_tag, f"{entry.name} repeats the format tag {tag!r}"
        by_tag[tag] = schema
    return by_tag
