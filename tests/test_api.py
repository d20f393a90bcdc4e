import types

import segmt


def test_all_lists_each_public_name_once():
    public = {
        name
        for name, value in vars(segmt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(segmt.__all__) == len(set(segmt.__all__))
    assert set(segmt.__all__) == public
