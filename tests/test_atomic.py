"""CSV table parsing and writing: round trips, typing, located errors."""

import csv
import io
import sys
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import (
    TABLE_GENERATOR_KINDS,
    csv_writer_table,
    random_property_names,
    random_table,
    ts,
)
from stkit.atomic import (
    DynaRecord,
    ExtRecord,
    GeoUnit,
    GridRecord,
    MANDATORY_COLUMNS,
    NUMBER,
    RelationRecord,
    UserUnit,
    format_timestamp,
    parse_table,
    parse_timestamp,
    read_table,
    write_table,
)
from stkit.exceptions import (
    BadCoordinate,
    BadEncoding,
    BadFieldValue,
    BadTimestamp,
    DuplicateId,
    MissingColumn,
    RaggedRow,
)


def test_parse_geo_literal_line():
    text = 'geo_id,type,coordinates,stop_kind\ng1,Point,"[116.0,39.9]",bus\n'
    records = parse_table("geo", text)
    assert records == [
        GeoUnit("g1", "Point", ((116.0, 39.9),), {"stop_kind": "bus"})
    ]


def test_parse_dyna_state_literal_line():
    text = (
        "dyna_id,type,time,entity_id,flow\n"
        "d1,state,2020-01-01T00:00:00Z,g1,5\n"
    )
    (rec,) = parse_table("dyna", text)
    assert rec.dyna_type == "state"
    assert rec.entity_id == "g1"
    assert rec.time == datetime(2020, 1, 1, tzinfo=timezone.utc)
    assert rec.properties == {"flow": 5}
    assert isinstance(rec.properties["flow"], int)


def test_write_geo_reproduces_literal_line():
    rec = GeoUnit("g1", "Point", ((116.0, 39.9),), {"stop_kind": "bus"})
    assert write_table("geo", [rec]) == (
        b'geo_id,type,coordinates,stop_kind\ng1,Point,"[116.0,39.9]",bus\n'
    )


def test_empty_record_list_writes_header_only():
    for kind, mandatory in MANDATORY_COLUMNS.items():
        data = write_table(kind, [])
        assert data == (",".join(mandatory) + "\n").encode()
        assert parse_table(kind, data) == []


def test_property_value_with_comma_quoted_and_round_trips():
    rec = UserUnit("u1", {"note": "a,b"})
    data = write_table("usr", [rec])
    # Independent CSV reader sees the comma inside one quoted field.
    rows = list(csv.reader(io.StringIO(data.decode())))
    assert rows == [["usr_id", "note"], ["u1", "a,b"]]
    assert parse_table("usr", data) == [rec]


def test_round_trip_all_generator_kinds_spot():
    rng = np.random.default_rng(7)
    for generator_kind in TABLE_GENERATOR_KINDS:
        kind, records = random_table(generator_kind, rng)
        assert parse_table(kind, write_table(kind, records)) == records


def test_property_typing_rules():
    text = (
        "usr_id,a,b,c,d,e,f\n"
        'u1,,42,-0.5,nan,+7,"1e3"\n'
    )
    (rec,) = parse_table("usr", text)
    # empty -> None; digit runs (sign allowed) -> int; "1e3" is a finite
    # float; non-finite spellings like "nan" stay strings.
    assert rec.properties["a"] is None
    assert rec.properties["b"] == 42 and isinstance(rec.properties["b"], int)
    assert rec.properties["c"] == -0.5
    assert rec.properties["d"] == "nan"
    assert rec.properties["e"] == 7 and isinstance(rec.properties["e"], int)
    assert rec.properties["f"] == 1000.0


@pytest.mark.parametrize("cell", ["٣", '"5\n"', " 5", "٣.٥", "1_000", "１.５"])
def test_number_cells_outside_ascii_digits_stay_strings(cell):
    """int() and float() also read other scripts' digits, surrounding
    whitespace and underscores; such a property cell stays the string it is,
    so writing the table gives back the same bytes."""
    text = f"usr_id,v\nu1,{cell}\n".encode()
    (rec,) = parse_table("usr", text)
    assert rec.properties["v"] == cell.strip('"')
    assert write_table("usr", [rec]) == text


@pytest.mark.parametrize("stamp", ["٢٠٢٤-01-01T00:00:00Z", "2024-01-01T0٣:00:00Z"])
def test_timestamps_in_other_scripts_digits_are_located(stamp):
    with pytest.raises(ValueError):
        parse_timestamp(stamp)
    text = f"ext_id,time\nw0,2024-01-01T00:00:00Z\nw1,{stamp}\n"
    with pytest.raises(BadTimestamp) as err:
        read_table("ext", text)
    assert (err.value.table, err.value.row, err.value.column) == ("ext", 2, "time")
    assert err.value.exit_code == 3


@pytest.mark.parametrize("cell", ["٣", '"5\n"', "３"])
def test_grid_index_outside_ascii_digits_is_located(cell):
    text = (
        "dyna_id,type,time,row_id,col_id,v\n"
        "d0,state,2020-01-01T00:00:00Z,0,0,1\n"
        f"d1,state,2020-01-01T00:00:00Z,{cell},0,1\n"
    )
    with pytest.raises(BadFieldValue) as err:
        read_table("grid", text)
    assert (err.value.table, err.value.row, err.value.column) == ("grid", 2, "row_id")
    assert err.value.exit_code == 3


def test_float_repr_round_trip_is_exact():
    values = [0.1, 1 / 3, 1e-300, 123456.789012345, -2.5e17]
    recs = [UserUnit(f"u{i}", {"v": v}) for i, v in enumerate(values)]
    out = parse_table("usr", write_table("usr", recs))
    for rec, v in zip(out, values):
        assert rec.properties["v"] == v


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_numpy_float_properties_round_trip_as_numbers(dtype):
    """A numpy float property is written as the plain float it holds, so it
    reads back as a number: the same float64, or the float32's value."""
    values = [dtype(v) for v in (0.1, 1 / 3, 1e-30, -2.5e17, 0.0)]
    recs = [UserUnit(f"u{i}", {"v": v}) for i, v in enumerate(values)]
    data = write_table("usr", recs)
    assert b"float" not in data
    table = read_table("usr", data)
    for i, v in enumerate(values):
        got = table.prop("v").at(i)
        assert type(got) is float and dtype(got) == v
    number, reason = table.numbers("v")
    assert (reason == NUMBER).all() and [dtype(x) for x in number.tolist()] == values


def test_timestamp_format_round_trip_and_rejections():
    t = datetime(2023, 7, 15, 6, 30, 45, tzinfo=timezone.utc)
    assert parse_timestamp(format_timestamp(t)) == t
    for year in (1, 999, 9999):  # the reader takes four-digit years only
        far = t.replace(year=year)
        assert format_timestamp(far) == f"{year:04d}-07-15T06:30:45Z"
        assert parse_timestamp(format_timestamp(far)) == far
        records = [DynaRecord("d0", "state", far, "g0", None, {"flow": 1.5})]
        assert parse_table("dyna", write_table("dyna", records)) == records
    for bad in (
        "2023-07-15 06:30:45Z",
        "2023-07-15T06:30:45",
        "2023-07-15T06:30:45+00:00",
        "23-07-15T06:30:45Z",
        "2023-13-15T06:30:45Z",
        "2023-02-29T00:00:00Z",
        "2023-07-15T24:00:00Z",
        "2023-07-15T06:30:45Z\n",
    ):
        with pytest.raises(ValueError):
            parse_timestamp(bad)
    leap = parse_timestamp("2024-02-29T00:00:00Z")
    assert leap == datetime(2024, 2, 29, tzinfo=timezone.utc)


def test_bad_latitude_rejected_with_location():
    text = 'geo_id,type,coordinates\ng1,Point,"[116.0,95.0]"\n'
    with pytest.raises(BadCoordinate) as err:
        parse_table("geo", text)
    assert err.value.table == "geo"
    assert err.value.row == 1
    assert err.value.column == "coordinates"
    assert "95.0" in str(err.value)


def test_linestring_needs_two_points():
    text = 'geo_id,type,coordinates\ng1,LineString,"[[116.0,39.9]]"\n'
    with pytest.raises(BadCoordinate):
        parse_table("geo", text)


def test_polygon_must_close():
    open_ring = "[[0,0],[1,0],[1,1],[0,1]]"
    text = f'geo_id,type,coordinates\ng1,Polygon,"{open_ring}"\n'
    with pytest.raises(BadCoordinate) as err:
        parse_table("geo", text)
    assert "close" in str(err.value)


def test_point_rejects_nested_pair_list():
    text = 'geo_id,type,coordinates\ng1,Point,"[[116.0,39.9]]"\n'
    with pytest.raises(BadCoordinate):
        parse_table("geo", text)


def test_coordinates_must_be_json():
    text = "geo_id,type,coordinates\ng1,Point,not json\n"
    with pytest.raises(BadCoordinate):
        parse_table("geo", text)


def test_bad_timestamp_located():
    text = "ext_id,time,temp\nw1,yesterday,20\n"
    with pytest.raises(BadTimestamp) as err:
        parse_table("ext", text)
    assert err.value.table == "ext"
    assert err.value.row == 1
    good, bad = "2023-07-15T06:30:45Z", "2023-02-29T00:00:00Z"
    for stamps, row in (
        ((good, bad, bad), 2),  # a repeated bad stamp fails at its first row
        ((good, good, bad, good), 3),  # a good stamp seen first does not mask it
    ):
        text = "ext_id,time\n" + "".join(
            f"w{i},{t}\n" for i, t in enumerate(stamps)
        )
        with pytest.raises(BadTimestamp) as err:
            parse_table("ext", text)
        assert err.value.row == row


def test_missing_mandatory_column_rejected():
    text = "geo_id,coordinates\ng1,\"[0,0]\"\n"
    with pytest.raises(MissingColumn):
        parse_table("geo", text)


def test_misordered_mandatory_columns_rejected():
    text = "type,geo_id,coordinates\nPoint,g1,\"[0,0]\"\n"
    with pytest.raises(MissingColumn):
        parse_table("geo", text)


def test_ragged_row_rejected_with_ordinal():
    text = "usr_id,age\nu1,30\nu2\n"
    with pytest.raises(RaggedRow) as err:
        parse_table("usr", text)
    assert err.value.row == 2


def test_duplicate_id_rejected():
    text = "usr_id\nu1\nu1\n"
    with pytest.raises(DuplicateId) as err:
        parse_table("usr", text)
    assert err.value.row == 2


def test_ext_identity_is_id_and_time():
    text = (
        "ext_id,time,temp\n"
        "w1,2020-01-01T00:00:00Z,20\n"
        "w1,2020-01-01T01:00:00Z,21\n"
    )
    records = parse_table("ext", text)
    assert len(records) == 2
    dup = text + "w1,2020-01-01T00:00:00Z,22\n"
    with pytest.raises(DuplicateId) as err:
        parse_table("ext", dup)
    # The time is spelled as the file spells it.
    assert str(err.value).startswith("identifier ('w1', '2020-01-01T00:00:00Z') already used")


def test_rel_type_domain_enforced():
    text = "rel_id,type,origin_id,des_id\nr1,road,a,b\n"
    with pytest.raises(BadFieldValue):
        parse_table("rel", text)


def test_dyna_type_domain_enforced():
    text = "dyna_id,type,time,entity_id\nd1,flow,2020-01-01T00:00:00Z,g1\n"
    with pytest.raises(BadFieldValue):
        parse_table("dyna", text)


def test_grid_index_must_be_nonnegative_integer():
    base = "dyna_id,type,time,row_id,col_id,v\n"
    for cell in ("-1", "1.5", "one"):
        text = base + f"d1,state,2020-01-01T00:00:00Z,{cell},0,1\n"
        with pytest.raises(BadFieldValue):
            parse_table("grid", text)


def test_grid_index_past_the_int_digit_limit_is_located():
    """A 5,000-digit index is more than int() converts; it fails as a bad
    field value at its cell, not as a raw ValueError."""
    text = (
        "dyna_id,type,time,row_id,col_id,v\n"
        "d0,state,2020-01-01T00:00:00Z,0,0,1\n"
        f"d1,state,2020-01-01T00:00:00Z,{'1' * 5000},0,1\n"
    )
    with pytest.raises(BadFieldValue) as err:
        read_table("grid", text)
    assert (err.value.table, err.value.row, err.value.column) == ("grid", 2, "row_id")
    assert "non-negative integer" in str(err.value)


@pytest.mark.parametrize(
    "coordinates",
    ["[1" + "0" * 400 + ",0]", "[" + "1" * 5000 + ",0]"],
    ids=["too_large_for_a_float", "past_the_int_digit_limit"],
)
def test_huge_integer_coordinate_is_located(coordinates):
    text = f'geo_id,type,coordinates\ng0,Point,"[116,39]"\ng1,Point,"{coordinates}"\n'
    with pytest.raises(BadCoordinate) as err:
        read_table("geo", text)
    assert (err.value.table, err.value.row, err.value.column) == (
        "geo", 2, "coordinates"
    )
    assert "finite" in str(err.value)


def test_integer_coordinates_read_as_floats():
    text = 'geo_id,type,coordinates\ng0,LineString,"[[116,39],[116,-39]]"\n'
    (unit,) = read_table("geo", text)
    assert unit.coordinates == ((116.0, 39.0), (116.0, -39.0))
    assert {type(v) for pair in unit.coordinates for v in pair} == {float}
    assert write_table("geo", [unit]).decode("utf-8").splitlines()[1] == (
        'g0,LineString,"[[116.0,39.0],[116.0,-39.0]]"'
    )


def test_dyna_location_column_optional_and_round_trips():
    with_loc = [
        DynaRecord("d1", "trajectory", ts(0), "u1", "g5", {"speed": 3.5}),
        DynaRecord("d2", "trajectory", ts(1), "u1", None, {"speed": None}),
    ]
    data = write_table("dyna", with_loc)
    header = data.decode().splitlines()[0]
    assert header == "dyna_id,type,time,entity_id,location,speed"
    assert parse_table("dyna", data) == with_loc

    without = [DynaRecord("d1", "state", ts(0), "g1", None, {"flow": 1})]
    header2 = write_table("dyna", without).decode().splitlines()[0]
    assert header2 == "dyna_id,type,time,entity_id,flow"


def test_duplicate_property_header_rejected():
    text = "usr_id,a,a\nu1,1,2\n"
    with pytest.raises(MissingColumn):
        parse_table("usr", text)


def test_property_shadowing_mandatory_rejected():
    text = "usr_id,usr_id\nu1,x\n"
    with pytest.raises(MissingColumn):
        parse_table("usr", text)


RESERVED_NAMES = [
    (kind, name) for kind, columns in MANDATORY_COLUMNS.items() for name in (*columns, "location")
]


@pytest.mark.parametrize("kind, name", RESERVED_NAMES, ids=[f"{k}-{n}" for k, n in RESERVED_NAMES])
def test_reserved_property_names_are_refused_both_ways(kind, name):
    """A property named like a mandatory column of its kind, or ``location``,
    is written by no table and read from no header: written after a state
    dyna table's entity_id, a ``location`` property reads as the location."""
    generator = {"dyna": "dyna_state"}.get(kind, kind)
    _, records = random_table(generator, np.random.default_rng(0))
    for record in records:
        record.properties = {"p": 1, name: 2}
    with pytest.raises(ValueError, match=f"property '{name}' is a reserved {kind} column"):
        write_table(kind, records)
    with pytest.raises(MissingColumn):
        read_table(kind, ",".join([*MANDATORY_COLUMNS[kind], "p", name]) + "\n")


@pytest.mark.parametrize("kind, header, fault", [
    ("usr", "usr_id,p,location", "property 'location' is a reserved usr column"),
    ("usr", "usr_id,a,b,a,usr_id", "property 'a' is repeated"),
    ("dyna", "dyna_id,type,time,entity_id,location,p,time",
     "property 'time' is a reserved dyna column"),
], ids=["reserved", "repeated", "reserved-after-location"])
def test_reader_names_the_first_property_at_fault(kind, header, fault):
    """The reader refuses a property header with the writer's message, which
    names the first property, in header order, that is reserved or repeated."""
    with pytest.raises(MissingColumn) as err:
        read_table(kind, header + "\n")
    assert str(err.value) == f"{fault} (table={kind})"


def test_mixed_property_keys_rejected_on_write():
    records = [UserUnit("u1", {"a": 1}), UserUnit("u2", {"b": 2})]
    with pytest.raises(ValueError):
        write_table("usr", records)


def test_crlf_input_accepted():
    text = "usr_id,age\r\nu1,30\r\n"
    (rec,) = parse_table("usr", text)
    assert rec == UserUnit("u1", {"age": 30})


def test_embedded_newline_in_quoted_field_round_trips():
    rec = UserUnit("u1", {"note": "line\nbreak"})
    assert parse_table("usr", write_table("usr", [rec])) == [rec]


def test_long_cells_round_trip_and_leave_the_field_limit_alone():
    """Cells far over csv's default 131,072-character field limit read back,
    quoted or plain, and the process-wide limit is the same afterwards."""
    vertices = tuple((-179.9 + i * 0.04, 45.0 + i * 1e-4) for i in range(8000))
    line = GeoUnit("g0", "LineString", vertices, {"note": "x" * 200_000})
    user = UserUnit("u0", {"note": "y" * 200_000})
    limit = csv.field_size_limit()
    data = write_table("geo", [line])
    assert len(data) > 2 * 131_072
    assert parse_table("geo", data) == [line]
    assert parse_table("usr", write_table("usr", [user])) == [user]
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize(
    "data, row",
    [
        (b"usr_id,note\nu0,a\nu1,caf\xe9\n", 2),
        (b"usr_id,not\xe9\nu0,a\n", None),  # the header
        (b"usr_id,note\nu0,a\n\xe9,b\n", 2),  # the first byte of a row
        (b'usr_id,note\nu0,"two\nlines"\n\nu1,\xe9\n', 3),  # after a quoted newline and a blank line
    ],
)
def test_a_byte_that_is_not_utf8_is_located(data, row):
    offset = data.index(0xE9)
    with pytest.raises(BadEncoding) as err:
        read_table("usr", data)
    assert (err.value.table, err.value.row, err.value.column) == ("usr", row, None)
    assert str(err.value).startswith(f"byte 0xe9 at offset {offset} is not UTF-8 (")


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes it


@pytest.mark.parametrize(
    "kind, data",
    [
        ("usr", b"usr_id,note\nu0,a\nu1,b\n"),
        ("usr", b'usr_id,note\nu0,"a,b"\nu1,b\n'),  # the csv.reader path
        ("dyna", b"dyna_id,type,time,entity_id,flow\nd0,state,2024-01-01T00:00:00Z,g0,1\n"),
    ],
)
def test_a_leading_byte_order_mark_is_dropped(kind, data):
    plain = read_table(kind, data)
    for source in (BOM + data, (BOM + data).decode("utf-8"), io.BytesIO(BOM + data)):
        table = read_table(kind, source)
        assert table == plain
        assert table.prop_names == plain.prop_names


def test_a_byte_order_mark_past_the_first_is_data():
    assert parse_table("usr", "usr_id,note\nu0,\ufeffa\n") == [UserUnit("u0", {"note": "\ufeffa"})]
    with pytest.raises(MissingColumn):
        read_table("usr", BOM + BOM + b"usr_id\nu0\n")


@pytest.mark.parametrize(
    "data",
    [b"usr_id,note\nu0,a\nu1,caf\xe9\n", b"usr_id,not\xe9\nu0,a\n", b"usr_id,note\nu0,a\n\xe9,b\n"],
)
def test_a_bad_byte_after_a_byte_order_mark_is_located_as_without_one(data):
    errors = []
    for source in (data, BOM + data):
        with pytest.raises(BadEncoding) as err:
            read_table("usr", source)
        errors.append(err.value)
    assert errors[1].row == errors[0].row
    assert str(errors[1]).startswith(f"byte 0xe9 at offset {data.index(0xE9) + 3} is not UTF-8 (")


def test_csv_errors_become_located_bad_encoding(monkeypatch):
    """A ``csv.Error`` (Python 3.10 raises one for NUL) is located at its row,
    and the field limit lifted for the read is restored."""
    reader = csv.reader

    def failing_reader(*args, **kwargs):
        rows = reader(*args, **kwargs)
        yield next(rows)
        yield next(rows)
        raise csv.Error("line contains NUL")

    monkeypatch.setattr(csv, "reader", failing_reader)
    limit = csv.field_size_limit()
    with pytest.raises(BadEncoding, match=r"^line contains NUL \(table=usr, row=2\)$"):
        read_table("usr", 'usr_id,note\nu0,"a"\nu1,"b"\n')
    assert csv.field_size_limit() == limit


def test_nul_reads_as_csv_reader_reads_it():
    text = "usr_id,note\nu0,a\x00b\n"
    if sys.version_info >= (3, 11):
        assert parse_table("usr", text) == [UserUnit("u0", {"note": "a\x00b"})]
    else:
        with pytest.raises(BadEncoding, match=r"NUL \(table=usr, row=1\)$"):
            parse_table("usr", text)


def test_parse_accepts_bytes_text_and_file_objects():
    rec = UserUnit("u1", {"age": 30})
    data = write_table("usr", [rec])
    assert parse_table("usr", data) == [rec]
    assert parse_table("usr", data.decode()) == [rec]
    assert parse_table("usr", io.BytesIO(data)) == [rec]
    assert parse_table("usr", io.StringIO(data.decode())) == [rec]


def test_row_order_preserved():
    rng = np.random.default_rng(3)
    kind, records = random_table("grid", rng)
    out = parse_table(kind, write_table(kind, records))
    assert [r.dyna_id for r in out] == [r.dyna_id for r in records]


def test_order_matters_for_identity_not_content():
    a = GridRecord("a", "state", ts(0), 0, 0, {"v": 1})
    b = GridRecord("b", "state", ts(1), 1, 1, {"v": 2})
    fwd = parse_table("grid", write_table("grid", [a, b]))
    rev = parse_table("grid", write_table("grid", [b, a]))
    assert fwd == [a, b] and rev == [b, a]


def test_gridod_and_ext_round_trip_spot():
    recs = parse_table(
        "gridod",
        "dyna_id,type,time,origin_row_id,origin_col_id,des_row_id,des_col_id,d\n"
        "g1,state,2020-01-01T00:00:00Z,0,1,2,3,7\n",
    )
    assert recs[0].origin_col_id == 1 and recs[0].des_col_id == 3
    data = write_table("gridod", recs)
    assert parse_table("gridod", data) == recs

    ext = [ExtRecord("w", ts(0), {"temp": -1.25})]
    assert parse_table("ext", write_table("ext", ext)) == ext


def test_rel_round_trip_with_none_weight():
    recs = [
        RelationRecord("r1", "geo", "a", "b", {"w": None}),
        RelationRecord("r2", "usr2geo", "u", "g", {"w": 2}),
    ]
    assert parse_table("rel", write_table("rel", recs)) == recs


# -- the column writer against csv.writer ---------------------------------------

QUOTE_PRONE = (",", '"', "\r", "\n", " ", "a", "b", "ü", "1", ".")


def random_text(rng, max_len=6):
    return "".join(rng.choice(QUOTE_PRONE, size=int(rng.integers(0, max_len + 1))))


@pytest.mark.parametrize("seed", range(6))
def test_write_table_equals_the_csv_writer_oracle(seed):
    """write_table writes what csv.writer writes, row by row, apart from the
    bare "\\r" rule stated in conftest: random cells in every column, random
    record lists of every kind, the tables read back from them, and
    one-column tables whose cells may be empty."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(20):
        names = random_property_names(rng)
        n = int(rng.integers(0, 8))
        cells = [
            RelationRecord(*(random_text(rng) for _ in range(4)),
                           {p: random_text(rng) for p in names})
            for _ in range(n)
        ]
        lone = [UserUnit(random_text(rng, 2)) for _ in range(n)]
        cases += [("rel", cells), ("usr", lone)]
    for generator_kind in TABLE_GENERATOR_KINDS:
        for _ in range(4):
            kind, records = random_table(generator_kind, rng)
            cases += [(kind, records), (kind, read_table(kind, write_table(kind, records)))]
    for kind, rows in cases:
        assert write_table(kind, rows) == csv_writer_table(kind, rows), (kind, list(rows))


@pytest.mark.parametrize(
    "note",
    ["a\rb", "\r", "a\r\nb", "\r\n", "line\nbreak", "a,b", 'say "hi"', '"', " lead", "trail "],
)
def test_cells_that_need_quotes_round_trip(note):
    """A cell holding "\\r" is quoted too, so stkit reads its own file back;
    leading and trailing spaces are kept without quotes."""
    records = [UserUnit("u0", {"note": note}), UserUnit("u,1", {"note": "z"})]
    data = write_table("usr", records)
    cell = f'"{note.replace(chr(34), 2 * chr(34))}"' if any(c in note for c in ',"\r\n') else note
    assert data.decode().startswith(f"usr_id,note\nu0,{cell}\n")
    assert list(csv.reader(io.StringIO(data.decode(), newline=""))) == [
        ["usr_id", "note"], ["u0", note], ["u,1", "z"]
    ]
    assert parse_table("usr", data) == records


def test_lone_empty_cell_is_quoted_not_blank():
    """An empty cell alone in its row is written "", as csv.writer writes it:
    the row is read and its empty identifier located, not skipped as blank."""
    data = write_table("usr", [UserUnit("u0"), UserUnit("")])
    assert data == b'usr_id\nu0\n""\n'
    assert list(csv.reader(io.StringIO(data.decode()))) == [["usr_id"], ["u0"], [""]]
    with pytest.raises(BadFieldValue) as info:
        read_table("usr", data)
    assert (info.value.row, info.value.column) == (2, "usr_id")
