package sre_test

import (
	"strings"
	"testing"

	"sre"
)

const reqsText = `
# production requirements for the walkthrough network
reach       A 128.0.0.0/1   tolerance>=1
reach       A 192.0.0.0/2   tolerance>=0
waypoint    A 192.0.0.0/2   via B tolerance>=0
probability A 128.0.0.0/1   >=0.99 plink=0.01
loadbalance A 128.0.0.0/1   paths>=1
`

func TestParseRequirements(t *testing.T) {
	reqs, err := sre.ParseRequirementsString(reqsText)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5 {
		t.Fatalf("want 5 requirements, got %d", len(reqs))
	}
	if reqs[0].Kind != "reach" || reqs[0].MinK != 1 {
		t.Errorf("req 0 parsed wrong: %+v", reqs[0])
	}
	if reqs[2].Via != "B" {
		t.Errorf("waypoint via = %q", reqs[2].Via)
	}
	if reqs[3].MinP != 0.99 || reqs[3].PLink != 0.01 {
		t.Errorf("probability parsed wrong: %+v", reqs[3])
	}
}

func TestParseRequirementErrors(t *testing.T) {
	for _, bad := range []string{
		"fly A 10.0.0.0/8",
		"reach A",
		"waypoint A 10.0.0.0/8 tolerance>=1",
		"probability A 10.0.0.0/8 0.9",
		"probability A 10.0.0.0/8 >=x",
		"loadbalance A 10.0.0.0/8 paths>=x",
		"reach A 10.0.0.0/8 bogus",
		"probability A 10.0.0.0/8 >=0.5 plink=1.5",
		"probability A 10.0.0.0/8 >=0.5 plink=NaN",
		"probability A 10.0.0.0/8 >=0.5 plink=-0.1",
		"probability A 10.0.0.0/8 >=0.5 pnode=2",
		"probability A 10.0.0.0/8 >=0.5 pnode=NaN",
		"probability A 10.0.0.0/24 >=NaN",
		"probability A 10.0.0.0/24 >=Inf",
		"probability A 10.0.0.0/24 >=1.5",
		"probability A 10.0.0.0/24 >=-1",
	} {
		if _, err := sre.ParseRequirementsString(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

// FuzzParseRequirements asserts the requirements parser is total: any
// text either parses or returns an error, and every accepted
// requirement has a known kind and a threshold and failure model that
// are probabilities.
func FuzzParseRequirements(f *testing.F) {
	for _, seed := range []string{reqsText,
		"probability A 10.0.0.0/24 >=0.9999 plink=0.001 pnode=0.0001",
		"waypoint-only B 10.0.0.0/8 via C tolerance>=2",
		"isolation A 10.9.0.0/16",
		"probability A 10.0.0.0/24 >=NaN",
	} {
		f.Add(seed)
	}
	kinds := map[string]bool{"reach": true, "waypoint": true, "waypoint-only": true,
		"isolation": true, "probability": true, "loadbalance": true}
	inUnit := func(p float64) bool { return p >= 0 && p <= 1 }
	f.Fuzz(func(t *testing.T, text string) {
		reqs, err := sre.ParseRequirementsString(text)
		if err != nil {
			return
		}
		for _, r := range reqs {
			if !kinds[r.Kind] {
				t.Fatalf("accepted unknown kind %q from %q", r.Kind, text)
			}
			if !inUnit(r.MinP) || !inUnit(r.PLink) || !inUnit(r.PNode) {
				t.Fatalf("accepted %+v from %q: MinP, PLink and PNode must be in [0, 1]", r, text)
			}
		}
	})
}

func TestCheckRequirements(t *testing.T) {
	v := verifier(t, sre.Options{MaxFailures: -1})
	defer v.Release()
	reqs, err := sre.ParseRequirementsString(reqsText)
	if err != nil {
		t.Fatal(err)
	}
	results, all := v.CheckRequirements(reqs)
	if !all {
		for _, r := range results {
			if !r.Holds {
				t.Errorf("line %d (%s %s %s): got %s, err=%v",
					r.Req.Line, r.Req.Kind, r.Req.Src, r.Req.Prefix, r.Got, r.Err)
			}
		}
		t.Fatal("all requirements should hold on the walkthrough network")
	}
	// Tighten one requirement beyond what the network provides.
	strict, err := sre.ParseRequirementsString("reach A 192.0.0.0/2 tolerance>=1")
	if err != nil {
		t.Fatal(err)
	}
	results, all = v.CheckRequirements(strict)
	if all || results[0].Holds {
		t.Error("192/2 cannot tolerate a failure; the check must fail")
	}
	if results[0].Got != "0" {
		t.Errorf("got %q, want measured tolerance 0", results[0].Got)
	}
	// Unknown router: evaluation error, requirement fails, others still run.
	mixed, err := sre.ParseRequirementsString("reach Z 128.0.0.0/1 tolerance>=0\nreach A 128.0.0.0/1 tolerance>=0")
	if err != nil {
		t.Fatal(err)
	}
	results, all = v.CheckRequirements(mixed)
	if all {
		t.Error("unknown router must fail the run")
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "unknown router") {
		t.Errorf("want unknown-router error, got %v", results[0].Err)
	}
	if !results[1].Holds {
		t.Error("second requirement must still be evaluated")
	}
}

func TestRequirementsCatchRegression(t *testing.T) {
	// The §6.5 change (deleting C's ACL) breaks the waypoint
	// requirement under failures — the requirements run catches it.
	net, err := sre.ParseNetwork(figure1)
	if err != nil {
		t.Fatal(err)
	}
	after := net.Clone()
	c := after.Topology.MustRouter("C")
	a := after.Topology.MustRouter("A")
	ac, _ := after.Topology.LinkBetween(a, c)
	after.Router(c).Interfaces[ac].ACLIn = nil

	// The contract: traffic for 192/2 may reach C ONLY through B, under
	// any combination of up to 2 failures. Before the change the direct
	// path is ACL-blocked, so nothing can bypass B; after the change a
	// single failure deflects traffic around B.
	wp := "waypoint-only A 192.0.0.0/2 via B tolerance>=2"
	reqsWp, err := sre.ParseRequirementsString(wp)
	if err != nil {
		t.Fatal(err)
	}
	vBefore, err := sre.NewVerifier(net, sre.Options{MaxFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer vBefore.Release()
	if _, all := vBefore.CheckRequirements(reqsWp); !all {
		t.Fatal("waypoint requirement should hold before the change")
	}
	vAfter, err := sre.NewVerifier(after, sre.Options{MaxFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer vAfter.Release()
	results, all := vAfter.CheckRequirements(reqsWp)
	if all {
		t.Errorf("waypoint requirement should break after the ACL deletion (got %s)", results[0].Got)
	}
}
