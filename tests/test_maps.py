"""Map-typed attribute column (pcommon.Map parity) — op semantics,
null paths, OTTL subscripts, and the config-registered stage."""

import numpy as np
import pyarrow as pa

from opentelemetry_collector_ray.stages.maps import (
    MAP_TYPE,
    MapAttributesStage,
    map_explode,
    map_from_columns,
    map_from_json,
    map_get,
    map_insert,
    map_keep_keys,
    map_len,
    map_remove,
    map_remove_if,
    map_rename,
    map_update,
    map_upsert,
)


def _arr():
    return pa.array(
        [
            [{"key": "a", "value": "1"}, {"key": "b", "value": "2"}],
            [],
            None,  # null map == empty map
            [{"key": "b", "value": "9"}],
        ],
        type=MAP_TYPE,
    )


def test_get_first_match_and_absent():
    assert map_get(_arr(), "a").to_pylist() == ["1", None, None, None]
    assert map_get(_arr(), "b").to_pylist() == ["2", None, None, "9"]


def test_upsert_updates_in_place_and_appends():
    out = map_upsert(_arr(), "b", "X").to_pylist()
    # row 0: b keeps its position (PutStr in-place update, Go semantics)
    assert out[0] == [{"key": "a", "value": "1"}, {"key": "b", "value": "X"}]
    assert out[1] == [{"key": "b", "value": "X"}]  # appended
    assert out[2] == [{"key": "b", "value": "X"}]  # null map materialized
    assert out[3] == [{"key": "b", "value": "X"}]


def test_insert_only_where_absent():
    out = map_insert(_arr(), "b", "X").to_pylist()
    assert out[0][1] == {"key": "b", "value": "2"}  # untouched
    assert out[1] == [{"key": "b", "value": "X"}]
    assert out[3] == [{"key": "b", "value": "9"}]


def test_update_only_where_present_with_per_row_values():
    vals = np.array(["u0", "u1", "u2", "u3"], dtype=object)
    out = map_update(_arr(), "b", vals).to_pylist()
    assert out[0][1] == {"key": "b", "value": "u0"}
    assert out[1] == [] and out[2] == []
    assert out[3] == [{"key": "b", "value": "u3"}]


def test_remove_rename_keep_keys_len():
    assert map_remove(_arr(), "b").to_pylist()[0] == [
        {"key": "a", "value": "1"}
    ]
    assert map_rename(_arr(), "b", "bb").to_pylist()[3] == [
        {"key": "bb", "value": "9"}
    ]
    assert map_keep_keys(_arr(), ["b"]).to_pylist()[0] == [
        {"key": "b", "value": "2"}
    ]
    assert map_len(_arr()).to_pylist() == [2, 0, 0, 1]


def test_remove_if_vectorized_predicate():
    out = map_remove_if(
        _arr(), lambda k, v: (k == "b") & (v == "2")
    ).to_pylist()
    assert out[0] == [{"key": "a", "value": "1"}]
    assert out[3] == [{"key": "b", "value": "9"}]  # value 9 survives


def test_from_json_handles_nulls_and_malformed():
    j = pa.array(['{"k": 87, "s": "x"}', None, "notjson", '{"b": true}', "[1]"])
    out = map_from_json(j).to_pylist()
    assert out[0] == [
        {"key": "k", "value": "87"},
        {"key": "s", "value": "x"},
    ]
    assert out[1] == [] and out[2] == [] and out[4] == []
    assert out[3] == [{"key": "b", "value": "true"}]


def test_from_columns_and_explode_roundtrip():
    t = pa.table({"id": [1, 2], "a": [10, 20], "b": ["x", None]})
    m = map_from_columns(t, ["a", "b"])
    t2 = pa.table({"id": t["id"], "m": m})
    flat = map_explode(t2, "m", ["id"])
    assert flat.to_pydict() == {
        "id": [1, 1, 2, 2],
        "key": ["a", "b", "a", "b"],
        "value": ["10", "x", "20", None],
    }


def test_ottl_subscript_condition():
    from opentelemetry_collector_ray.stages.ottl import (
        ConditionFilter,
        eval_condition,
        parse_condition,
    )

    t = pa.table({"id": [1, 2, 3, 4], "m": _arr()})
    ast = parse_condition("m['b'] == '2'")
    assert eval_condition(ast, t).to_pylist() == [True, None, None, False]
    kept = ConditionFilter("m['b'] == '9' or m['a'] == '1'")(t)
    assert kept["id"].to_pylist() == [1, 4]


def test_stage_pipeline_and_registry():
    stage = MapAttributesStage(
        column="attrs",
        from_json="props",
        actions=[
            {"action": "rename", "key": "k", "to": "props.k"},
            {"action": "upsert", "key": "src", "value": "t"},
            {"action": "delete_matching", "key": "props.k", "value": "0"},
        ],
    )
    t = pa.table({"id": [1, 2], "props": ['{"k": 5}', '{"k": 0}']})
    out = stage(t)
    got = map_explode(out, "attrs", ["id"]).to_pydict()
    assert got == {
        "id": [1, 1, 2],
        "key": ["props.k", "src", "src"],
        "value": ["5", "t", "t"],
    }
    # registered in the config stage registry
    from opentelemetry_collector_ray.pipelines.builder import STAGE_REGISTRY

    built = STAGE_REGISTRY["map_attributes"](
        {"column": "attrs", "actions": [], "from_json": "props"}
    )
    assert isinstance(built, MapAttributesStage) and built.from_json == "props"


def test_stage_validation_errors():
    import pytest

    with pytest.raises(ValueError):
        MapAttributesStage(column="m", actions=[{"action": "bogus"}])
    with pytest.raises(ValueError):
        MapAttributesStage(column="m", actions=[{"action": "upsert", "key": "k"}])
    with pytest.raises(ValueError):
        MapAttributesStage(column="m", actions=[{"action": "rename", "key": "k"}])
