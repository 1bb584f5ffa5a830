package ldap

import (
	"bufio"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenCases are the messages whose encodings testdata/golden.txt
// pins: every op type, both length forms, an empty SearchDone, a
// nested filter, and an ExtendedResponse with and without a value.
func goldenCases() []struct {
	name string
	msg  *Message
} {
	longValue := []byte(strings.Repeat("partition p-07 element se-eu-north-1 ok\n", 8))
	entry := map[string][]string{
		"objectClass":   {"udrSubscription"},
		"uid":           {"sub-00000042"},
		"msisdn":        {"34600000042"},
		"imsi":          {"214010000000042"},
		"impi":          {"sub-00000042@ims.udr"},
		"impu":          {"sip:sub-00000042@ims.udr", "tel:+34600000042"},
		"active":        {"TRUE"},
		"barPremium":    {"FALSE"},
		"area":          {"eu-south"},
		"servicesEmpty": {},
	}
	return []struct {
		name string
		msg  *Message
	}{
		{"bind_request", &Message{ID: 1, Op: &BindRequest{Version: 3, DN: "cn=admin,dc=udr", Password: "secret"}}},
		{"bind_response", &Message{ID: 1, Op: &BindResponse{Result{Code: ResultSuccess}}}},
		{"unbind_request", &Message{ID: 2, Op: &UnbindRequest{}}},
		{"search_request_eq", &Message{ID: 3, Op: &SearchRequest{
			BaseDN: "ou=subscribers,dc=udr", Scope: ScopeWholeSubtree,
			Filter: Eq("msisdn", "34600000042"),
		}}},
		{"search_request_nested", &Message{ID: 300, Op: &SearchRequest{
			BaseDN: "uid=sub-00000042,ou=subscribers,dc=udr", Scope: ScopeBaseObject,
			Deref: 3, SizeLimit: 1000, TimeLimit: -1, TypesOnly: true,
			Filter: And(Eq("objectClass", "udrSubscription"),
				Or(Eq("msisdn", "34600000042"), Present("imsi")),
				Filter{Kind: FilterNot, Children: []Filter{Eq("active", "FALSE")}}),
			Attributes: []string{"msisdn", "imsi", "*"},
		}}},
		{"search_entry_long", &Message{ID: 3, Op: &SearchEntry{
			DN: "uid=sub-00000042,ou=subscribers,dc=udr", Attrs: entry,
		}}},
		{"search_entry_no_attrs", &Message{ID: 4, Op: &SearchEntry{DN: "uid=x", Attrs: map[string][]string{}}}},
		{"search_done_empty", &Message{ID: 3, Op: &SearchDone{}}},
		{"search_done_full", &Message{ID: 5, Op: &SearchDone{Result{
			Code: ResultNoSuchObject, MatchedDN: "ou=subscribers,dc=udr", Message: "locator: identity not found",
		}}}},
		{"modify_request", &Message{ID: 6, Op: &ModifyRequest{
			DN: "uid=sub-00000042,ou=subscribers,dc=udr",
			Changes: []Change{
				{Op: ChangeReplace, Attr: "area", Vals: []string{"eu-north"}},
				{Op: ChangeAdd, Attr: "impu", Vals: []string{"sip:a@x", "sip:b@x"}},
				{Op: ChangeDelete, Attr: "cfu"},
			},
		}}},
		{"modify_response", &Message{ID: 6, Op: &ModifyResponse{Result{Code: ResultSuccess}}}},
		{"add_request", &Message{ID: 7, Op: &AddRequest{DN: "uid=sub-9,ou=subscribers,dc=udr", Attrs: map[string][]string{
			"uid": {"sub-9"}, "msisdn": {"34600000009"}, "impu": {"sip:9@x", "tel:9"},
		}}}},
		{"add_response", &Message{ID: 7, Op: &AddResponse{Result{Code: ResultEntryAlreadyExists, Message: "exists"}}}},
		{"del_request", &Message{ID: 8, Op: &DelRequest{DN: "uid=sub-9,ou=subscribers,dc=udr"}}},
		{"del_response", &Message{ID: 8, Op: &DelResponse{Result{Code: ResultSuccess}}}},
		{"compare_request", &Message{ID: 9, Op: &CompareRequest{DN: "uid=sub-9,ou=subscribers,dc=udr", Attr: "active", Value: "TRUE"}}},
		{"compare_response", &Message{ID: 9, Op: &CompareResponse{Result{Code: ResultCompareTrue}}}},
		{"extended_request_no_value", &Message{ID: 10, Op: &ExtendedRequest{Name: OIDTxnBegin}}},
		{"extended_request_value", &Message{ID: 11, Op: &ExtendedRequest{Name: OIDMove, Value: []byte("p-07 se-eu-north-1")}}},
		{"extended_response_no_value", &Message{ID: 10, Op: &ExtendedResponse{Result: Result{Code: ResultSuccess}, Name: OIDTxnBegin}}},
		{"extended_response_value", &Message{ID: 12, Op: &ExtendedResponse{
			Result: Result{Code: ResultSuccess}, Name: OIDStatus, Value: longValue,
		}}},
		{"large_message_id", &Message{ID: 1<<40 + 255, Op: &DelResponse{Result{Code: ResultBusy, Message: "busy"}}}},
	}
}

// TestGoldenEncodings pins the wire encoding of every op type byte for
// byte: testdata/golden.txt holds "name hex" lines produced by the
// codec this one replaced.
func TestGoldenEncodings(t *testing.T) {
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = hx
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	long := false
	for _, c := range goldenCases() {
		hx, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no golden encoding", c.name)
			continue
		}
		delete(want, c.name)
		buf, err := c.msg.Encode()
		if err != nil {
			t.Errorf("%s: Encode: %v", c.name, err)
			continue
		}
		if got := hex.EncodeToString(buf); got != hx {
			t.Errorf("%s: encoding differs\n got %s\nwant %s", c.name, got, hx)
		}
		// The same bytes appended behind unrelated output.
		pre := []byte{0xAA, 0xBB}
		if buf, err = c.msg.AppendTo(pre); err != nil || hex.EncodeToString(buf[2:]) != hx || buf[0] != 0xAA {
			t.Errorf("%s: AppendTo behind a prefix differs (err %v)", c.name, err)
		}
		if buf[3]&0x80 != 0 {
			long = true // envelope length in long form
		}
	}
	for name := range want {
		t.Errorf("golden encoding %s has no case", name)
	}
	if !long {
		t.Error("no golden case uses a long-form length")
	}
}
