package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Token kinds.
type tokKind uint8

const (
	tkIdent tokKind = iota
	tkKeyword
	tkInt
	tkFloat
	tkString
	tkPunct // ( ) , ; * =  < > <= >= != <>
	tkEOF
)

type token struct {
	kind tokKind
	text string // keywords: the canonical upper-case spelling
	i    int64
	f    float64
}

// keywords maps each keyword's upper-case spelling to itself, so a keyword
// token carries the canonical string whatever case the query used.
var keywords = map[string]string{
	"CREATE": "CREATE", "TABLE": "TABLE", "INSERT": "INSERT", "INTO": "INTO",
	"VALUES": "VALUES", "SELECT": "SELECT", "FROM": "FROM", "WHERE": "WHERE",
	"UPDATE": "UPDATE", "SET": "SET", "DELETE": "DELETE", "AND": "AND",
	"INT": "INT", "INTEGER": "INTEGER", "FLOAT": "FLOAT", "REAL": "REAL",
	"TEXT": "TEXT", "VARCHAR": "VARCHAR", "PRIMARY": "PRIMARY", "KEY": "KEY",
	"NULL": "NULL", "LIMIT": "LIMIT", "ORDER": "ORDER", "BY": "BY",
	"COUNT": "COUNT", "ASC": "ASC", "DESC": "DESC",
}

// maxKeywordLen is the length of the longest keyword (INTEGER, PRIMARY,
// VARCHAR).
const maxKeywordLen = 7

// isLetter and isDigit classify a byte b as unicode.IsLetter(rune(b)) and
// unicode.IsDigit(rune(b)) do, so Latin-1 letter bytes lex as identifier
// bytes.
var isLetter, isDigit [256]bool

func init() {
	for c := range isLetter {
		isLetter[c] = unicode.IsLetter(rune(c))
		isDigit[c] = unicode.IsDigit(rune(c))
	}
}

// scan lexes the token that starts at or after off in src, skipping
// whitespace, and returns it with the offset just past it. At the end of
// src it returns a tkEOF token.
func scan(src string, off int) (token, int, error) {
	for off < len(src) && (src[off] == ' ' || src[off] == '\t' || src[off] == '\n' || src[off] == '\r') {
		off++
	}
	if off == len(src) {
		return token{kind: tkEOF}, off, nil
	}
	c := src[off]
	switch {
	case c == '\'':
		return scanString(src, off)
	case c >= '0' && c <= '9' || (c == '-' && off+1 < len(src) && src[off+1] >= '0' && src[off+1] <= '9'):
		return scanNumber(src, off)
	case isLetter[c] || c == '_':
		j := off + 1
		for j < len(src) && (isLetter[src[j]] || isDigit[src[j]] || src[j] == '_') {
			j++
		}
		word := src[off:j]
		if kw, ok := keyword(word); ok {
			return token{kind: tkKeyword, text: kw}, j, nil
		}
		return token{kind: tkIdent, text: word}, j, nil
	case c == '<' || c == '>' || c == '!':
		if off+1 < len(src) && (src[off+1] == '=' || (c == '<' && src[off+1] == '>')) {
			return token{kind: tkPunct, text: src[off : off+2]}, off + 2, nil
		}
		if c == '!' {
			return token{}, off, fmt.Errorf("sqldb: unexpected '!'")
		}
		return token{kind: tkPunct, text: src[off : off+1]}, off + 1, nil
	case c == '(' || c == ')' || c == ',' || c == ';' || c == '*' || c == '=':
		return token{kind: tkPunct, text: src[off : off+1]}, off + 1, nil
	}
	return token{}, off, fmt.Errorf("sqldb: unexpected character %q", c)
}

// scanString lexes the quoted literal at src[off]. A doubled quote inside
// it stands for one quote. The value is copied out of src, so a stored
// value does not keep its whole query alive.
func scanString(src string, off int) (token, int, error) {
	start := off + 1
	end, doubled := start, false
	for {
		k := strings.IndexByte(src[end:], '\'')
		if k < 0 {
			return token{}, off, fmt.Errorf("sqldb: unterminated string literal")
		}
		end += k
		if end+1 < len(src) && src[end+1] == '\'' {
			doubled = true
			end += 2
			continue
		}
		break
	}
	text := src[start:end]
	if doubled {
		text = strings.ReplaceAll(text, "''", "'")
	} else {
		text = strings.Clone(text)
	}
	return token{kind: tkString, text: text}, end + 1, nil
}

// scanNumber lexes the integer or float at src[off]: digits with an
// optional leading minus, and a '.' or exponent making it a float.
func scanNumber(src string, off int) (token, int, error) {
	j := off + 1
	isFloat := false
	for ; j < len(src); j++ {
		c := src[j]
		if c == '.' || c == 'e' || c == 'E' {
			isFloat = true
		} else if !(c >= '0' && c <= '9' || (c == '+' || c == '-') && (src[j-1] == 'e' || src[j-1] == 'E')) {
			break
		}
	}
	text := src[off:j]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, off, fmt.Errorf("sqldb: bad number %q", text)
		}
		return token{kind: tkFloat, f: f, text: text}, j, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, off, fmt.Errorf("sqldb: bad integer %q", text)
	}
	return token{kind: tkInt, i: n, text: text}, j, nil
}

// keyword reports whether word is a keyword in any letter case and returns
// its canonical spelling. Only ASCII words can be keywords: a word's bytes
// >= 0x80 are Latin-1 letters, and no word made of them upper-cases to
// ASCII text.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var up [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 0x80 {
			return "", false
		}
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}
