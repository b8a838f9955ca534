"""Fixtures every test module shares.

The command line parses YAML with libyaml's ``CSafeLoader`` where PyYAML
has it.  So that every config and ``--override`` value a test writes also
shows that the loader changes nothing, each one is parsed by the
pure-Python ``SafeLoader`` as well: both must give the same document, or
both must refuse the text.
"""

import pytest
import yaml

from gcnn import cli


@pytest.fixture(autouse=True)
def yaml_loaders_agree(monkeypatch):
    fast = cli._load_yaml

    def load_both(text):
        try:
            doc = fast(text)
        except yaml.YAMLError:
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=yaml.SafeLoader)
            raise
        assert repr(yaml.load(text, Loader=yaml.SafeLoader)) == repr(doc), text
        return doc

    monkeypatch.setattr(cli, "_load_yaml", load_both)
