package sre

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Requirements checking: the §2.1 "verifying changes" workflow. An
// operator keeps a requirements file — the network's contract — and
// re-verifies it against every configuration change, across the whole
// product space of packets and failures:
//
//	# requirements for the production WAN
//	reach         core1 10.0.0.0/24  tolerance>=1
//	waypoint      edge3 10.0.0.0/24  via fw1  tolerance>=0
//	waypoint-only edge3 10.0.0.0/24  via fw1  tolerance>=2   # nothing bypasses fw1
//	isolation     guest 10.9.0.0/16  tolerance>=2
//	probability   core1 10.0.0.0/24  >=0.9999  plink=0.001
//	loadbalance   core1 10.0.0.0/24  paths>=2
//
// '#' starts a comment. Tolerances compare against the verifier's
// failure budget; `probability` takes a threshold and an optional
// plink= / pnode= failure model (defaults 0.001 / 0), each a
// probability in [0, 1].

// Requirement is one parsed requirement line.
type Requirement struct {
	Kind     string // reach, waypoint, waypoint-only, isolation, probability, loadbalance
	Src      string
	Prefix   string
	Via      string  // waypoint and waypoint-only
	MinK     int     // tolerance>=K (reach, waypoint, isolation)
	MinP     float64 // probability only
	MinPaths int     // loadbalance only
	PLink    float64
	PNode    float64
	Line     int
}

// RequirementResult pairs a requirement with its verification outcome.
type RequirementResult struct {
	Req Requirement
	// Holds reports whether the requirement is satisfied.
	Holds bool
	// Got describes the measured value (tolerance, probability, paths).
	Got string
	// Err is set when the requirement could not be evaluated (unknown
	// router, prefix not originated, ...).
	Err error
}

// ParseRequirements reads a requirements file.
func ParseRequirements(r io.Reader) ([]Requirement, error) {
	sc := bufio.NewScanner(r)
	var out []Requirement
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		req, err := parseRequirement(fields, lineNo)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, sc.Err()
}

// ParseRequirementsString parses requirements from a string.
func ParseRequirementsString(s string) ([]Requirement, error) {
	return ParseRequirements(strings.NewReader(s))
}

func parseRequirement(fields []string, line int) (Requirement, error) {
	req := Requirement{Kind: fields[0], Line: line, PLink: 0.001}
	bad := func(format string, args ...interface{}) (Requirement, error) {
		return Requirement{}, fmt.Errorf("requirements: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	if len(fields) < 3 {
		return bad("want '<kind> <router> <prefix> ...'")
	}
	req.Src, req.Prefix = fields[1], fields[2]
	rest := fields[3:]
	switch req.Kind {
	case "reach", "isolation":
		req.MinK = 0
		for _, f := range rest {
			if v, ok := cutPrefixInt(f, "tolerance>="); ok {
				req.MinK = v
			} else {
				return bad("unexpected %q", f)
			}
		}
	case "waypoint", "waypoint-only":
		if len(rest) < 2 || rest[0] != "via" {
			return bad("%s wants 'via <router>'", req.Kind)
		}
		req.Via = rest[1]
		for _, f := range rest[2:] {
			if v, ok := cutPrefixInt(f, "tolerance>="); ok {
				req.MinK = v
			} else {
				return bad("unexpected %q", f)
			}
		}
	case "probability":
		if len(rest) < 1 || !strings.HasPrefix(rest[0], ">=") {
			return bad("probability wants '>=<p>'")
		}
		p, ok := parseProbability(rest[0][2:])
		if !ok {
			return bad("bad threshold %q (want a probability in [0, 1])", rest[0])
		}
		req.MinP = p
		for _, f := range rest[1:] {
			switch {
			case strings.HasPrefix(f, "plink="):
				if req.PLink, ok = parseProbability(f[6:]); !ok {
					return bad("bad plink %q (want a probability in [0, 1])", f)
				}
			case strings.HasPrefix(f, "pnode="):
				if req.PNode, ok = parseProbability(f[6:]); !ok {
					return bad("bad pnode %q (want a probability in [0, 1])", f)
				}
			default:
				return bad("unexpected %q", f)
			}
		}
	case "loadbalance":
		if len(rest) != 1 {
			return bad("loadbalance wants 'paths>=<n>'")
		}
		v, ok := cutPrefixInt(rest[0], "paths>=")
		if !ok {
			return bad("loadbalance wants 'paths>=<n>'")
		}
		req.MinPaths = v
	default:
		return bad("unknown requirement kind %q", req.Kind)
	}
	return req, nil
}

// parseProbability parses s as a probability: a number in [0, 1],
// which NaN and the infinities are not.
func parseProbability(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && v >= 0 && v <= 1
}

func cutPrefixInt(s, prefix string) (int, bool) {
	if !strings.HasPrefix(s, prefix) {
		return 0, false
	}
	v, err := strconv.Atoi(s[len(prefix):])
	if err != nil {
		return 0, false
	}
	return v, true
}

// CheckRequirements verifies every requirement against the network's
// symbolic execution. All requirements are evaluated (the first failure
// does not stop the run); the second result reports whether ALL hold.
func (v *Verifier) CheckRequirements(reqs []Requirement) ([]RequirementResult, bool) {
	out := make([]RequirementResult, 0, len(reqs))
	all := true
	for _, req := range reqs {
		res := v.checkOne(req)
		if !res.Holds {
			all = false
		}
		out = append(out, res)
	}
	return out, all
}

func (v *Verifier) checkOne(req Requirement) RequirementResult {
	res := RequirementResult{Req: req}
	fail := func(err error) RequirementResult {
		res.Err = err
		res.Holds = false
		res.Got = "error"
		return res
	}
	switch req.Kind {
	case "reach":
		k, err := v.FailureTolerance(req.Src, req.Prefix)
		if err != nil {
			return fail(err)
		}
		res.Holds = k >= req.MinK
		res.Got = toleranceString(k)
	case "waypoint":
		k, err := v.WaypointTolerance(req.Src, req.Prefix, req.Via)
		if err != nil {
			return fail(err)
		}
		res.Holds = k >= req.MinK
		res.Got = toleranceString(k)
	case "waypoint-only":
		k, err := v.WaypointOnlyTolerance(req.Src, req.Prefix, req.Via)
		if err != nil {
			return fail(err)
		}
		res.Holds = k >= req.MinK
		res.Got = toleranceString(k)
	case "isolation":
		k, err := v.IsolationTolerance(req.Src, req.Prefix)
		if err != nil {
			return fail(err)
		}
		res.Holds = k >= req.MinK
		res.Got = toleranceString(k)
	case "probability":
		model := LinkFailures(req.PLink)
		if req.PNode > 0 {
			model = NodeAndLinkFailures(req.PLink, req.PNode)
		}
		p, err := v.Probability(req.Src, req.Prefix, model)
		if err != nil {
			return fail(err)
		}
		res.Holds = p >= req.MinP
		res.Got = strconv.FormatFloat(p, 'f', 6, 64)
	case "loadbalance":
		n, err := v.LoadBalancedPaths(req.Src, req.Prefix)
		if err != nil {
			return fail(err)
		}
		res.Holds = n >= req.MinPaths
		res.Got = strconv.Itoa(n)
	default:
		return fail(fmt.Errorf("unknown requirement kind %q", req.Kind))
	}
	return res
}

func toleranceString(k int) string {
	if k == InfiniteTolerance {
		return "inf"
	}
	return strconv.Itoa(k)
}
