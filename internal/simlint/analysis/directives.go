package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives indexes the `//simlint:<name>` comments of one file.
//
// A directive can appear in three scopes:
//
//   - on a function declaration's doc comment — applies to the whole
//     function body;
//   - on the same line as a statement — applies to that line;
//   - alone on the line immediately above a statement — applies to the
//     next line (like a //nolint comment).
//
// The directive name may be followed by a free-text justification,
// e.g. `//simlint:nocharge caller charges the batch`, which simlint
// ignores but reviewers should not.
type Directives struct {
	fset *token.FileSet
	// lines maps a directive name to the set of file lines it covers
	// via same-line or line-above placement.
	lines map[string]map[int]bool
	// funcs maps a directive name to the functions whose doc carries it.
	funcs map[string][]*ast.FuncDecl
}

// DirectivesFor returns (building on first use) the directive index for
// the file containing pos, or an empty index if the position is not in
// any of the pass's files.
func (p *Pass) DirectivesFor(file *ast.File) *Directives {
	if p.directives == nil {
		p.directives = make(map[*ast.File]*Directives)
	}
	if d := p.directives[file]; d != nil {
		return d
	}
	d := indexDirectives(p.Fset, file)
	p.directives[file] = d
	return d
}

func indexDirectives(fset *token.FileSet, file *ast.File) *Directives {
	d := &Directives{
		fset:  fset,
		lines: make(map[string]map[int]bool),
		funcs: make(map[string][]*ast.FuncDecl),
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, name := range DirectiveNames(c.Text) {
				set := d.lines[name]
				if set == nil {
					set = make(map[int]bool)
					d.lines[name] = set
				}
				// Cover every line the comment spans (block comments can
				// span several) plus the following line, so both the
				// trailing-comment and comment-above forms work.
				start := fset.Position(c.Pos()).Line
				end := fset.Position(c.End()).Line
				for line := start; line <= end+1; line++ {
					set[line] = true
				}
			}
		}
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			for _, name := range DirectiveNames(c.Text) {
				d.funcs[name] = append(d.funcs[name], fd)
			}
		}
	}
	return d
}

// DirectiveNames extracts every directive name from one comment's text:
// "nocharge" from "//simlint:nocharge reason…", both names of a comment
// carrying two directives separated by "; ", and block-comment forms like
// "/*simlint:nocharge reason*/". Non-directive comments yield nil.
// A directive token must start the comment or follow whitespace, and its
// name must be an identifier, so prose mentioning "simlint:" mid-word or
// quoting a placeholder such as `simlint:<name>` is not a directive.
func DirectiveNames(text string) []string {
	// Strip the comment markers so both forms scan identically.
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		text = strings.TrimSuffix(text[2:], "*/")
	}
	const marker = "simlint:"
	var names []string
	for i := 0; ; {
		j := strings.Index(text[i:], marker)
		if j < 0 {
			break
		}
		j += i
		// Only at the start of a whitespace-delimited token.
		if j > 0 && !isSpace(text[j-1]) {
			i = j + len(marker)
			continue
		}
		rest := text[j+len(marker):]
		if k := strings.IndexFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' }); k >= 0 {
			rest = rest[:k]
		}
		if rest != "" && strings.Trim(rest, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") == "" {
			names = append(names, rest)
		}
		i = j + len(marker)
	}
	return names
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '/' }

// Allows reports whether the directive name covers pos: either pos lies
// inside a function whose doc carries the directive, or the directive
// appears on pos's line or the line above.
func (d *Directives) Allows(name string, pos token.Pos) bool {
	if set := d.lines[name]; set != nil && set[d.fset.Position(pos).Line] {
		return true
	}
	for _, fd := range d.funcs[name] {
		if fd.Pos() <= pos && pos <= fd.End() {
			return true
		}
	}
	return false
}
