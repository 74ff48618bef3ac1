package shef

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The CI workflow picks some tests by name: the race-repeat steps and the
// chaos job by -run pattern, the fuzz smoke by -run and -fuzz. When a
// pattern matches nothing, go test still exits 0, so renaming a test
// would drop it from its step without a trace. TestCIPatternsSelectTests
// holds every such pattern to selecting at least one Test or Fuzz
// function in the packages its command names. It scans the _test.go
// sources rather than running go test -list, so it costs tier-1 almost
// nothing.

// ciSelection is one -run or -fuzz pattern of a go test command in a
// workflow file, with the package patterns the command names.
type ciSelection struct {
	line    int
	flag    string
	pattern string
	pkgs    []string
}

// ciSelections returns the name-selecting patterns of every go test
// command in workflow. A -run '^$' is the idiom for running no test (the
// benchmark steps) and is not a selection.
func ciSelections(workflow string) []ciSelection {
	var out []ciSelection
	lines := strings.Split(workflow, "\n")
	for i := 0; i < len(lines); i++ {
		no, line := i+1, lines[i]
		for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + lines[i]
		}
		toks := shellFields(line)
		start := -1
		for j := 0; j+1 < len(toks); j++ {
			if toks[j] == "go" && toks[j+1] == "test" {
				start = j + 2
				break
			}
		}
		if start < 0 {
			continue
		}
		var sels []ciSelection
		var pkgs []string
		for j := start; j < len(toks); j++ {
			tok := toks[j]
			switch {
			case strings.HasPrefix(tok, "./"):
				pkgs = append(pkgs, tok)
			case tok == "-run" || tok == "-fuzz":
				if j+1 < len(toks) {
					j++
					sels = append(sels, ciSelection{line: no, flag: tok, pattern: toks[j]})
				}
			case strings.HasPrefix(tok, "-run=") || strings.HasPrefix(tok, "-fuzz="):
				flag, pat, _ := strings.Cut(tok, "=")
				sels = append(sels, ciSelection{line: no, flag: flag, pattern: pat})
			}
		}
		for _, s := range sels {
			if s.flag == "-run" && s.pattern == "^$" {
				continue
			}
			s.pkgs = pkgs
			out = append(out, s)
		}
	}
	return out
}

// shellFields splits a shell command line into words, honouring single
// and double quotes (which it strips). It stops at a comment.
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	in, quote := false, byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			if in {
				out = append(out, cur.String())
				cur.Reset()
				in = false
			}
		case c == '#' && !in:
			return out
		default:
			cur.WriteByte(c)
			in = true
		}
	}
	if in {
		out = append(out, cur.String())
	}
	return out
}

// splitTop splits a regexp at each sep outside brackets and parentheses,
// as go test splits a -run pattern at '/' into per-level patterns.
func splitTop(pat string, sep byte) []string {
	var out []string
	depth, bracket, last := 0, false, 0
	for i := 0; i < len(pat); i++ {
		switch c := pat[i]; {
		case c == '\\':
			i++
		case bracket:
			bracket = c != ']'
		case c == '[':
			bracket = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			out = append(out, pat[last:i])
			last = i + 1
		}
	}
	return append(out, pat[last:])
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testNames lists the Test and Fuzz functions declared in the _test.go
// files of the package directories pkgs names under root. A name-selected
// step lists its packages; a ./... selection would need a module walk
// that no step calls for, so it is an error here.
func testNames(root string, pkgs []string) ([]string, error) {
	var names []string
	for _, p := range pkgs {
		if strings.HasSuffix(p, "...") {
			return nil, fmt.Errorf("package pattern %q: name the packages", p)
		}
		files, err := filepath.Glob(filepath.Join(root, p, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	return names, nil
}

// ciPatternProblems checks each selection of workflow against the tests
// under root. A -run pattern must select a Test or Fuzz function with
// each of its top-level alternatives, so a renamed test in a list of
// names is caught too; a -fuzz pattern must select a Fuzz function.
func ciPatternProblems(workflow, root string) (checked int, problems []string, err error) {
	for _, s := range ciSelections(workflow) {
		names, err := testNames(root, s.pkgs)
		if err != nil {
			return checked, problems, err
		}
		alts := []string{s.pattern}
		if s.flag == "-run" {
			alts = splitTop(splitTop(s.pattern, '/')[0], '|')
		}
		for _, alt := range alts {
			re, err := regexp.Compile(alt)
			if err != nil {
				return checked, problems, fmt.Errorf("line %d: %s %q: %w", s.line, s.flag, s.pattern, err)
			}
			checked++
			found := false
			for _, n := range names {
				if (s.flag == "-run" || strings.HasPrefix(n, "Fuzz")) && re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				problems = append(problems, fmt.Sprintf("line %d: %s %q selects no test in %s",
					s.line, s.flag, alt, strings.Join(s.pkgs, " ")))
			}
		}
	}
	return checked, problems, nil
}

func TestCIPatternsSelectTests(t *testing.T) {
	t.Parallel()
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked, problems, err := ciPatternProblems(string(ci), ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("ci.yml %s", p)
	}
	// The workflow's race repeats, chaos job and fuzz smoke hold more
	// than a dozen names; a parser that finds none must not pass.
	if checked < 12 {
		t.Errorf("checked %d patterns in ci.yml, want at least 12", checked)
	}

	// The fixture names tests and fuzz targets that do not exist, next to
	// ones that do: the check reports exactly the missing ones.
	fixture, err := os.ReadFile("testdata/ci_nomatch.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, problems, err = ciPatternProblems(string(fixture), ".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`line 8: -run "TestNoSuchTest" selects no test in ./internal/shield`,
		`line 10: -run "FuzzNoSuchTarget" selects no test in ./internal/shield/`,
		`line 10: -fuzz "FuzzNoSuchTarget" selects no test in ./internal/shield/`,
		`line 12: -run "NoSuchChaos" selects no test in ./internal/sdp/`,
		`line 14: -fuzz "SealRegions" selects no test in ./internal/shield/`,
		`line 18: -run "NoSuchSplit" selects no test in ./internal/accel`,
	}
	if !reflect.DeepEqual(problems, want) {
		t.Errorf("fixture problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}
