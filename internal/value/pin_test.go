package value

import (
	"encoding/json"
	"math"
	"testing"
)

// pinned holds, for values of every kind and awkward content, the bytes that
// leave the package: Hash, String, Key.Encode (as the only part of a key of
// table "t/%") and MarshalJSON. The constants were printed by the map-based
// representation this package had before records became sorted slices;
// state hashes, WAL records, snapshot files and golden constants all depend
// on them, so a failure here means the representation leaked, not that the
// table needs regenerating.
var pinned = []struct {
	name string
	v    Value
	hash uint64
	str  string
	enc  Encoded
	json string
}{
	{"invalid", Value{},
		0xaf63bd4c8601b7df, "<invalid>", "t%2F%25/?<invalid>", "{\"k\":0}"},
	{"int zero", Int(0),
		0x82f1207b4e87194, "0", "t%2F%25/i0", "{\"k\":1}"},
	{"int negative", Int(-42),
		0x381d8b7674216dd5, "-42", "t%2F%25/i-42", "{\"k\":1,\"i\":-42}"},
	{"int min", Int(math.MinInt64),
		0xb69fd3c49119cd6c, "-9223372036854775808", "t%2F%25/i-9223372036854775808", "{\"k\":1,\"i\":-9223372036854775808}"},
	{"int max", Int(math.MaxInt64),
		0xee243ec3b123e050, "9223372036854775807", "t%2F%25/i9223372036854775807", "{\"k\":1,\"i\":9223372036854775807}"},
	{"bool false", Bool(false),
		0x835ee07b4ee5316, "false", "t%2F%25/b0", "{\"k\":3}"},
	{"bool true", Bool(true),
		0x835ef07b4ee54c9, "true", "t%2F%25/b1", "{\"k\":3,\"b\":true}"},
	{"string empty", Str(""),
		0xaf63bf4c8601bb45, "\"\"", "t%2F%25/s", "{\"k\":2}"},
	{"string slash", Str("a/b"),
		0x6eb6ff8fa7dbfe01, "\"a/b\"", "t%2F%25/sa%2Fb", "{\"k\":2,\"s\":\"a/b\"}"},
	{"string percent", Str("100%/2F"),
		0x4342fdc1e0cf7e84, "\"100%/2F\"", "t%2F%25/s100%25%2F2F", "{\"k\":2,\"s\":\"100%/2F\"}"},
	{"string quotes", Str(`say "hi" \ <tag> & é` + "\n"),
		0x3174e6f1179e2b27, "\"say \\\"hi\\\" \\\\ <tag> & é\\n\"", "t%2F%25/ssay \"hi\" \\ <tag> & é\n", "{\"k\":2,\"s\":\"say \\\"hi\\\" \\\\ \\u003ctag\\u003e \\u0026 é\\n\"}"},
	{"list empty", List(),
		0xaf63b94c8601b113, "[]", "t%2F%25/?[]", "{\"k\":4}"},
	{"list nested", List(Int(1), Str("a"), List(Bool(true), List()), Record(nil)),
		0x67ef10a8b575182b, "[1,\"a\",[true,[]],{}]", "t%2F%25/?[1,\"a\",[true,[]],{}]", "{\"k\":4,\"l\":[{\"k\":1,\"i\":1},{\"k\":2,\"s\":\"a\"},{\"k\":4,\"l\":[{\"k\":3,\"b\":true},{\"k\":4}]},{\"k\":5}]}"},
	{"record nil", Record(nil),
		0xaf63b84c8601af60, "{}", "t%2F%25/?{}", "{\"k\":5}"},
	{"record empty", Record(map[string]Value{}),
		0xaf63b84c8601af60, "{}", "t%2F%25/?{}", "{\"k\":5}"},
	{"record flat", Record(map[string]Value{"quantity": Int(50), "ytd": Int(0), "orderCnt": Int(7), "remoteCnt": Int(-1)}),
		0x7527a477f8b47258, "{orderCnt:7,quantity:50,remoteCnt:-1,ytd:0}", "t%2F%25/?{orderCnt:7,quantity:50,remoteCnt:-1,ytd:0}", "{\"k\":5,\"r\":{\"orderCnt\":{\"k\":1,\"i\":7},\"quantity\":{\"k\":1,\"i\":50},\"remoteCnt\":{\"k\":1,\"i\":-1},\"ytd\":{\"k\":1}}}"},
	{"record nested", Record(map[string]Value{
		"b":     Bool(true),
		"a":     Str("x/y"),
		"inner": Record(map[string]Value{"s": Str(""), "l": List(Int(1), Int(2))}),
		"Z":     List(Record(map[string]Value{"k": Int(1)})),
		"a b":   Int(3),
		`q"<`:   Bool(false),
	}),
		0xa0b7f496d1253b, "{Z:[{k:1}],a:\"x/y\",a b:3,b:true,inner:{l:[1,2],s:\"\"},q\"<:false}", "t%2F%25/?{Z:[{k:1}],a:\"x%2Fy\",a b:3,b:true,inner:{l:[1,2],s:\"\"},q\"<:false}", "{\"k\":5,\"r\":{\"Z\":{\"k\":4,\"l\":[{\"k\":5,\"r\":{\"k\":{\"k\":1,\"i\":1}}}]},\"a\":{\"k\":2,\"s\":\"x/y\"},\"a b\":{\"k\":1,\"i\":3},\"b\":{\"k\":3,\"b\":true},\"inner\":{\"k\":5,\"r\":{\"l\":{\"k\":4,\"l\":[{\"k\":1,\"i\":1},{\"k\":1,\"i\":2}]},\"s\":{\"k\":2}}},\"q\\\"\\u003c\":{\"k\":3}}}"},
	{"with field existing", Record(map[string]Value{"a": Int(1), "b": Int(2)}).WithField("a", Str("new")),
		0xbd3a604342e49b7c, "{a:\"new\",b:2}", "t%2F%25/?{a:\"new\",b:2}", "{\"k\":5,\"r\":{\"a\":{\"k\":2,\"s\":\"new\"},\"b\":{\"k\":1,\"i\":2}}}"},
	{"with field new", Record(map[string]Value{"b": Int(2)}).WithField("a", Int(1)).WithField("c", Int(3)),
		0x185e70b4e40479e7, "{a:1,b:2,c:3}", "t%2F%25/?{a:1,b:2,c:3}", "{\"k\":5,\"r\":{\"a\":{\"k\":1,\"i\":1},\"b\":{\"k\":1,\"i\":2},\"c\":{\"k\":1,\"i\":3}}}"},
	{"with field on scalar", Int(5).WithField("f", Int(1)),
		0x21ae31543534a348, "{f:1}", "t%2F%25/?{f:1}", "{\"k\":5,\"r\":{\"f\":{\"k\":1,\"i\":1}}}"},
	{"append on scalar", Str("s").Append(Int(1), Int(2)),
		0xa5440e272d1dde5a, "[1,2]", "t%2F%25/?[1,2]", "{\"k\":4,\"l\":[{\"k\":1,\"i\":1},{\"k\":1,\"i\":2}]}"},
}

func TestPinnedEncodings(t *testing.T) {
	for _, c := range pinned {
		if got := c.v.Hash(); got != c.hash {
			t.Errorf("%s: Hash = %#x, want %#x", c.name, got, c.hash)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("%s: String = %q, want %q", c.name, got, c.str)
		}
		if got := NewKey("t/%", c.v).Encode(); got != c.enc {
			t.Errorf("%s: Encode = %q, want %q", c.name, got, c.enc)
		}
		data, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		if string(data) != c.json {
			t.Errorf("%s: JSON = %s, want %s", c.name, data, c.json)
		}
		var back Value
		if err := json.Unmarshal([]byte(c.json), &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.name, err)
		}
		if !back.Equal(c.v) || back.Hash() != c.hash {
			t.Errorf("%s: pinned JSON decodes to %v", c.name, back)
		}
	}
}
