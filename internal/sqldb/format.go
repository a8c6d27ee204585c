package sqldb

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// FormatStmt renders a parsed statement back to SQL. The nested SQL service
// uses it to rewrite queries (the inner enclave parses, encrypts literal
// values, and forwards the rewritten text to the shared database service).
// It walks the statement twice: once counting the text's length, then
// writing the text into one builder grown to exactly that length.
func FormatStmt(st Stmt) (string, error) {
	n := stmtLen(st)
	if n < 0 {
		return "", fmt.Errorf("sqldb: cannot format %T", st)
	}
	var w textWriter
	w.b.Grow(n)
	w.stmt(st)
	return w.b.String(), nil
}

// stmtLen is the length of the text FormatStmt writes for st, or -1 when
// it cannot format st.
func stmtLen(st Stmt) int {
	w := textWriter{counting: true}
	if !w.stmt(st) {
		return -1
	}
	return w.n
}

// textWriter writes a statement's text into b or, when counting, only adds
// its length to n, so one walk of the statement serves both passes.
type textWriter struct {
	b        strings.Builder
	n        int
	counting bool
}

func (w *textWriter) put(s string) {
	if w.counting {
		w.n += len(s)
		return
	}
	w.b.WriteString(s)
}

func (w *textWriter) putBytes(p []byte) {
	if w.counting {
		w.n += len(p)
		return
	}
	w.b.Write(p)
}

// stmt writes st and reports whether it is a statement it can format.
func (w *textWriter) stmt(st Stmt) bool {
	switch s := st.(type) {
	case *CreateStmt:
		w.put("CREATE TABLE ")
		w.put(s.Table)
		w.put(" (")
		for i, c := range s.Cols {
			if i > 0 {
				w.put(", ")
			}
			w.put(c.Name)
			w.put(" ")
			w.put(c.Kind.String())
			if i == s.PK {
				w.put(" PRIMARY KEY")
			}
		}
		w.put(")")
	case *InsertStmt:
		w.put("INSERT INTO ")
		w.put(s.Table)
		if len(s.Cols) > 0 {
			w.put(" (")
			w.list(s.Cols)
			w.put(")")
		}
		w.put(" VALUES (")
		for i, v := range s.Vals {
			if i > 0 {
				w.put(", ")
			}
			w.literal(v)
		}
		w.put(")")
	case *SelectStmt:
		w.put("SELECT ")
		switch {
		case s.Count:
			w.put("COUNT(*)")
		case s.Cols == nil:
			w.put("*")
		default:
			w.list(s.Cols)
		}
		w.put(" FROM ")
		w.put(s.Table)
		w.where(s.Where)
		if s.OrderBy != "" {
			w.put(" ORDER BY ")
			w.put(s.OrderBy)
			if s.Desc {
				w.put(" DESC")
			}
		}
		if s.Limit >= 0 {
			w.put(" LIMIT ")
			w.literal(Int(int64(s.Limit)))
		}
	case *UpdateStmt:
		w.put("UPDATE ")
		w.put(s.Table)
		w.put(" SET ")
		for i, set := range s.Sets {
			if i > 0 {
				w.put(", ")
			}
			w.put(set.Col)
			w.put(" = ")
			w.literal(set.Val)
		}
		w.where(s.Where)
	case *DeleteStmt:
		w.put("DELETE FROM ")
		w.put(s.Table)
		w.where(s.Where)
	default:
		return false
	}
	return true
}

func (w *textWriter) list(names []string) {
	for i, name := range names {
		if i > 0 {
			w.put(", ")
		}
		w.put(name)
	}
}

func (w *textWriter) where(where []Cond) {
	for i, c := range where {
		if i == 0 {
			w.put(" WHERE ")
		} else {
			w.put(" AND ")
		}
		w.put(c.Col)
		w.put(" ")
		w.put(c.Op)
		w.put(" ")
		w.literal(c.Val)
	}
}

// maxNumLen bounds the text of an int64 or a shortest-form float64, with
// the ".0" a whole float gets.
const maxNumLen = 32

// literal writes v as a SQL literal: text quoted with its quotes doubled, a
// float always with a '.' or an exponent so it reads back as a float.
func (w *textWriter) literal(v Value) {
	var num [maxNumLen]byte
	switch v.Kind {
	case KText:
		w.put("'")
		s := v.S
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				break
			}
			w.put(s[:i+1])
			w.put("'")
			s = s[i+1:]
		}
		w.put(s)
		w.put("'")
	case KInt:
		w.putBytes(strconv.AppendInt(num[:0], v.I, 10))
	case KFloat:
		f := strconv.AppendFloat(num[:0], v.F, 'g', -1, 64)
		w.putBytes(f)
		if !bytes.ContainsAny(f, ".eE") {
			w.put(".0")
		}
	default:
		w.put("NULL")
	}
}
