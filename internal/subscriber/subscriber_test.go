package subscriber

import (
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Profile {
	return &Profile{
		ID:         "sub-00000001",
		IMSIVal:    "21401000000001",
		MSISDNVal:  "34600000001",
		IMPIVal:    "sub-00000001@ims.example.net",
		IMPUVals:   []string{"sip:+34600000001@ims.example.net", "tel:+34600000001"},
		HomeRegion: "eu-south",
		AuthKeyHex: "000102030405060708090a0b0c0d0e0f",
		SQN:        42,
		Active:     true,
		Services: Services{
			BarPremium:           true,
			ForwardUnconditional: "34699999999",
			SMSEnabled:           true,
			IMSEnabled:           true,
		},
		Location: Location{
			ServingNode:    "mme-eu-south",
			Area:           "area-1",
			Roaming:        false,
			UpdatedAtMicro: 1700000000000000,
		},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	p := sample()
	e := p.ToEntry()
	got, err := FromEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.IMSIVal != p.IMSIVal || got.MSISDNVal != p.MSISDNVal {
		t.Fatalf("identities: %+v", got)
	}
	if got.SQN != 42 || !got.Active {
		t.Fatalf("sqn/active: %+v", got)
	}
	if got.Services != p.Services {
		t.Fatalf("services: %+v vs %+v", got.Services, p.Services)
	}
	if got.Location != p.Location {
		t.Fatalf("location: %+v vs %+v", got.Location, p.Location)
	}
	if len(got.IMPUVals) != 2 || got.IMPUVals[1] != "tel:+34600000001" {
		t.Fatalf("impus: %v", got.IMPUVals)
	}
}

func TestFromEntryWrongClass(t *testing.T) {
	e := sample().ToEntry()
	e[AttrObjectClass] = []string{"other"}
	if _, err := FromEntry(e); err == nil {
		t.Fatal("wrong objectClass accepted")
	}
}

func TestFromEntryBadSQN(t *testing.T) {
	e := sample().ToEntry()
	e[AttrSQN] = []string{"not-a-number"}
	if _, err := FromEntry(e); err == nil {
		t.Fatal("bad sqn accepted")
	}
}

func TestIdentitiesComplete(t *testing.T) {
	p := sample()
	ids := p.Identities()
	types := map[IdentityType]int{}
	for _, id := range ids {
		types[id.Type]++
	}
	if types[UID] != 1 || types[IMSI] != 1 || types[MSISDN] != 1 || types[IMPI] != 1 || types[IMPU] != 2 {
		t.Fatalf("identities = %v", ids)
	}
}

func TestIdentitiesSkipEmpty(t *testing.T) {
	p := &Profile{ID: "sub-1", IMSIVal: "123"}
	ids := p.Identities()
	if len(ids) != 2 {
		t.Fatalf("identities = %v", ids)
	}
}

func TestIdentityString(t *testing.T) {
	id := Identity{Type: MSISDN, Value: "34600000001"}
	if id.String() != "MSISDN:34600000001" {
		t.Fatalf("string = %q", id)
	}
}

func TestIdentityAttrRoundTrip(t *testing.T) {
	for i, attr := range IdentityAttrs {
		id, ok := IdentityForAttr(attr, "v")
		if !ok || id.Value != "v" || id.Type.Attr() != attr {
			t.Fatalf("IdentityAttrs[%d]=%s: got %v/%v", i, attr, id, ok)
		}
	}
	if UID.Attr() != "" {
		t.Fatal("UID is the row key, not an indexed attribute")
	}
	if _, ok := IdentityForAttr(AttrArea, "v"); ok {
		t.Fatal("a non-identity attribute named an identity")
	}
}

func TestDNRoundTrip(t *testing.T) {
	dn := DN("sub-00000042")
	if !strings.HasPrefix(dn, "uid=sub-00000042,") {
		t.Fatalf("dn = %q", dn)
	}
	id, err := ParseDN(dn)
	if err != nil || id != "sub-00000042" {
		t.Fatalf("parse: %q %v", id, err)
	}
}

func TestParseDNErrors(t *testing.T) {
	for _, bad := range []string{"", "cn=x,dc=udr", "uid=", "uid=x"} {
		if _, err := ParseDN(bad); err == nil {
			t.Errorf("ParseDN(%q) accepted", bad)
		}
	}
}

func TestDNRoundTripProperty(t *testing.T) {
	f := func(raw string) bool {
		// IDs never contain commas in our scheme; normalize.
		id := strings.ReplaceAll(raw, ",", "")
		if id == "" {
			return true
		}
		got, err := ParseDN(DN(id))
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterministicAndUnique(t *testing.T) {
	g := NewGenerator("eu", "us")
	a1, a2 := g.Profile(7), g.Profile(7)
	if a1.ID != a2.ID || a1.IMSIVal != a2.IMSIVal {
		t.Fatal("generator not deterministic")
	}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		p := g.Profile(i)
		for _, id := range p.Identities() {
			k := id.String()
			if seen[k] {
				t.Fatalf("duplicate identity %s", k)
			}
			seen[k] = true
		}
	}
}

func TestGeneratorRegionsRoundRobin(t *testing.T) {
	g := NewGenerator("a", "b", "c")
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		counts[g.Profile(i).HomeRegion]++
	}
	for _, r := range []string{"a", "b", "c"} {
		if counts[r] != 10 {
			t.Fatalf("region %s = %d", r, counts[r])
		}
	}
}

func TestGeneratorEntryRoundTrip(t *testing.T) {
	g := NewGenerator("eu")
	for i := 0; i < 10; i++ {
		p := g.Profile(i)
		got, err := FromEntry(p.ToEntry())
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != p.ID || len(got.IMPUVals) != len(p.IMPUVals) {
			t.Fatalf("round trip %d: %+v", i, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(n uint16, sqn uint32, active, barOut, barPrem bool) bool {
		g := NewGenerator("r1", "r2")
		p := g.Profile(int(n))
		p.SQN = uint64(sqn)
		p.Active = active
		p.Services.BarOutgoing = barOut
		p.Services.BarPremium = barPrem
		got, err := FromEntry(p.ToEntry())
		if err != nil {
			return false
		}
		return got.SQN == p.SQN && got.Active == p.Active &&
			got.Services.BarOutgoing == barOut && got.Services.BarPremium == barPrem
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityTypeString(t *testing.T) {
	for ty, want := range map[IdentityType]string{
		IMSI: "IMSI", MSISDN: "MSISDN", IMPU: "IMPU", IMPI: "IMPI", UID: "UID",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q", int(ty), ty.String())
		}
	}
}
