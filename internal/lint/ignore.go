package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	rule   string
	reason string
	pos    token.Position // position of the comment itself
	target int            // line the directive suppresses
	used   bool
}

const ignorePrefix = "lint:ignore"

// RuleIgnore is the rule name under which malformed or unused //lint:ignore
// directives are themselves reported: a suppression without a written
// reason is a finding, not a free pass, and so is one left behind after its
// code went or naming a rule that never fires on its line.
const RuleIgnore = "ignore"

// parseIgnores extracts //lint:ignore directives from a file. A directive on
// its own line suppresses the next line; a trailing directive suppresses its
// own line. Directives missing a rule or a reason are returned as
// diagnostics instead.
func parseIgnores(fset *token.FileSet, f *ast.File, root string) (dirs []*ignoreDirective, malformed []Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			pos := fset.Position(c.Pos())
			end := fset.Position(c.End())
			rule, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if rule == "" || reason == "" {
				file, line, col := relPosition(root, pos)
				malformed = append(malformed, Diagnostic{
					File: file, Line: line, Col: col, Rule: RuleIgnore,
					Message: "//lint:ignore needs a rule and a written reason: //lint:ignore <rule> <reason>",
				})
				continue
			}
			target := end.Line
			if !commentTrailsCode(fset, f, c) {
				target = end.Line + 1
			}
			dirs = append(dirs, &ignoreDirective{rule: rule, reason: reason, pos: pos, target: target})
		}
	}
	return dirs, malformed
}

// commentTrailsCode reports whether c shares its line with code (a trailing
// comment) rather than standing on a line of its own: some non-comment node
// starts or ends on the comment's line, before the comment.
func commentTrailsCode(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	trails := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || trails {
			return false
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		if fset.Position(n.Pos()).Line == line && n.Pos() < c.Pos() {
			trails = true
			return false
		}
		if fset.Position(n.End()).Line == line && n.End() <= c.Pos() {
			trails = true
			return false
		}
		// Only descend into subtrees that can reach the line.
		return fset.Position(n.Pos()).Line <= line && fset.Position(n.End()).Line >= line
	})
	return trails
}

// suppressionIndex matches diagnostics against ignore directives, keyed by
// file and target line.
type suppressionIndex struct {
	byFileLine map[string][]*ignoreDirective
}

func newSuppressionIndex() *suppressionIndex {
	return &suppressionIndex{byFileLine: map[string][]*ignoreDirective{}}
}

func (s *suppressionIndex) add(file string, d *ignoreDirective) {
	s.byFileLine[file] = append(s.byFileLine[file], d)
}

// suppresses reports whether a directive covers the diagnostic and marks the
// directive used.
func (s *suppressionIndex) suppresses(d Diagnostic) bool {
	for _, dir := range s.byFileLine[d.File] {
		if dir.target == d.Line && dir.rule == d.Rule {
			dir.used = true
			return true
		}
	}
	return false
}

// unused reports the directives that suppressed nothing. A directive naming
// a rule of the suite that this run did not execute is left alone; one
// naming a rule the suite does not have is always reported.
func (s *suppressionIndex) unused(root string, ran []*Analyzer) []Diagnostic {
	ranRule := map[string]bool{}
	for _, a := range ran {
		ranRule[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, dirs := range s.byFileLine {
		for _, dir := range dirs {
			if dir.used || (known[dir.rule] && !ranRule[dir.rule]) {
				continue
			}
			file, line, col := relPosition(root, dir.pos)
			out = append(out, Diagnostic{
				File: file, Line: line, Col: col, Rule: RuleIgnore,
				Message: fmt.Sprintf("//lint:ignore %s suppresses nothing: no %s finding on line %d; delete the directive", dir.rule, dir.rule, dir.target),
			})
		}
	}
	return out
}
