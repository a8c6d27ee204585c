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
// The text is written into one builder, sized up front from the
// statement's names and literals.
func FormatStmt(st Stmt) (string, error) {
	var b strings.Builder
	switch s := st.(type) {
	case *CreateStmt:
		n := len("CREATE TABLE  () PRIMARY KEY") + len(s.Table)
		for _, c := range s.Cols {
			n += len(", ") + len(c.Name) + len(" FLOAT")
		}
		b.Grow(n)
		b.WriteString("CREATE TABLE ")
		b.WriteString(s.Table)
		b.WriteString(" (")
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteByte(' ')
			b.WriteString(c.Kind.String())
			if i == s.PK {
				b.WriteString(" PRIMARY KEY")
			}
		}
		b.WriteByte(')')
	case *InsertStmt:
		n := len("INSERT INTO  () VALUES ()") + len(s.Table) + listLen(s.Cols)
		for _, v := range s.Vals {
			n += len(", ") + literalLen(v)
		}
		b.Grow(n)
		b.WriteString("INSERT INTO ")
		b.WriteString(s.Table)
		if len(s.Cols) > 0 {
			b.WriteString(" (")
			writeList(&b, s.Cols)
			b.WriteByte(')')
		}
		b.WriteString(" VALUES (")
		for i, v := range s.Vals {
			if i > 0 {
				b.WriteString(", ")
			}
			writeLiteral(&b, v)
		}
		b.WriteByte(')')
	case *SelectStmt:
		b.Grow(len("SELECT COUNT(*) FROM  ORDER BY  DESC LIMIT ") + maxNumLen +
			listLen(s.Cols) + len(s.Table) + whereLen(s.Where) + len(s.OrderBy))
		b.WriteString("SELECT ")
		switch {
		case s.Count:
			b.WriteString("COUNT(*)")
		case s.Cols == nil:
			b.WriteByte('*')
		default:
			writeList(&b, s.Cols)
		}
		b.WriteString(" FROM ")
		b.WriteString(s.Table)
		writeWhere(&b, s.Where)
		if s.OrderBy != "" {
			b.WriteString(" ORDER BY ")
			b.WriteString(s.OrderBy)
			if s.Desc {
				b.WriteString(" DESC")
			}
		}
		if s.Limit >= 0 {
			var num [maxNumLen]byte
			b.WriteString(" LIMIT ")
			b.Write(strconv.AppendInt(num[:0], int64(s.Limit), 10))
		}
	case *UpdateStmt:
		n := len("UPDATE  SET ") + len(s.Table) + whereLen(s.Where)
		for _, set := range s.Sets {
			n += len(", ") + len(set.Col) + len(" = ") + literalLen(set.Val)
		}
		b.Grow(n)
		b.WriteString("UPDATE ")
		b.WriteString(s.Table)
		b.WriteString(" SET ")
		for i, set := range s.Sets {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(set.Col)
			b.WriteString(" = ")
			writeLiteral(&b, set.Val)
		}
		writeWhere(&b, s.Where)
	case *DeleteStmt:
		b.Grow(len("DELETE FROM ") + len(s.Table) + whereLen(s.Where))
		b.WriteString("DELETE FROM ")
		b.WriteString(s.Table)
		writeWhere(&b, s.Where)
	default:
		return "", fmt.Errorf("sqldb: cannot format %T", st)
	}
	return b.String(), nil
}

// maxNumLen bounds the text of an int64 or a shortest-form float64, with
// the ".0" a whole float gets.
const maxNumLen = 32

// listLen bounds the length of names written by writeList.
func listLen(names []string) int {
	n := 0
	for _, name := range names {
		n += len(", ") + len(name)
	}
	return n
}

func writeList(b *strings.Builder, names []string) {
	for i, name := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(name)
	}
}

// whereLen bounds the length of the clause writeWhere writes.
func whereLen(where []Cond) int {
	n := 0
	for _, c := range where {
		n += len(" WHERE ") + len(c.Col) + len("  ") + len(c.Op) + literalLen(c.Val)
	}
	return n
}

func writeWhere(b *strings.Builder, where []Cond) {
	for i, c := range where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(c.Col)
		b.WriteByte(' ')
		b.WriteString(c.Op)
		b.WriteByte(' ')
		writeLiteral(b, c.Val)
	}
}

// literalLen bounds the length of the literal writeLiteral writes for v.
func literalLen(v Value) int {
	if v.Kind == KText {
		return len(v.S) + strings.Count(v.S, "'") + 2
	}
	return maxNumLen
}

// writeLiteral writes v as a SQL literal: text quoted with its quotes
// doubled, a float always with a '.' or an exponent so it reads back as a
// float.
func writeLiteral(b *strings.Builder, v Value) {
	var num [maxNumLen]byte
	switch v.Kind {
	case KText:
		b.WriteByte('\'')
		s := v.S
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				break
			}
			b.WriteString(s[:i+1])
			b.WriteByte('\'')
			s = s[i+1:]
		}
		b.WriteString(s)
		b.WriteByte('\'')
	case KInt:
		b.Write(strconv.AppendInt(num[:0], v.I, 10))
	case KFloat:
		f := strconv.AppendFloat(num[:0], v.F, 'g', -1, 64)
		b.Write(f)
		if !bytes.ContainsAny(f, ".eE") {
			b.WriteString(".0")
		}
	default:
		b.WriteString("NULL")
	}
}
