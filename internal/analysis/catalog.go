package analysis

import (
	"fmt"
	"go/types"
)

// catalogName is one name a rule catalog matches by: a method (typeName
// and name), a package-level function (name alone), a struct field (field
// set), every method of a type (name "*") or a type itself (name "").
type catalogName struct {
	catalog   string
	pkgSuffix string
	typeName  string
	name      string
	field     bool
}

// catalogNames lists the names of every rule catalog that matches
// declarations by name.
func catalogNames() []catalogName {
	var out []catalogName
	for _, t := range transitionOps {
		out = append(out, catalogName{"transitionOps", t.pkgSuffix, t.typeName, t.funcName, false})
	}
	for _, s := range secretSources {
		out = append(out, catalogName{"secretSources", s.pkgSuffix, s.typeName, s.name, s.field})
	}
	for _, s := range secretSinks {
		out = append(out, catalogName{"secretSinks", s.pkgSuffix, s.typeName, s.name, false})
	}
	for _, r := range lockRanks {
		out = append(out, catalogName{"lockRanks", r.pkgSuffix, r.owner, "", false})
	}
	return out
}

// staleCatalog returns one "nescheck/stale-catalog" finding per catalog
// name that a loaded package matches by path but does not declare: the
// entry matches nothing, as one left behind by a deletion does, and its
// rule silently stops applying. A package that is not loaded proves
// nothing. The finding sits on the package clause of the package's first
// file.
func staleCatalog(pkgs []*Package) []Finding {
	var out []Finding
	for _, c := range catalogNames() {
		for _, pkg := range pkgs {
			if !pathMatches(pkg.Path, c.pkgSuffix) || c.declaredIn(pkg.Types) {
				continue
			}
			what := c.typeName
			if c.typeName == "" {
				what = c.name
			} else if c.name != "" {
				what += "." + c.name
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(pkg.Files[0].Name.Pos()),
				Rule: "nescheck/stale-catalog",
				Msg:  fmt.Sprintf("%s entry %s names nothing %s declares; delete it", c.catalog, what, pkg.Path),
			})
		}
	}
	return out
}

// declaredIn reports whether p declares the name: the package-level
// function, or the type with the method or field declared on it.
func (c catalogName) declaredIn(p *types.Package) bool {
	if c.typeName == "" {
		_, ok := p.Scope().Lookup(c.name).(*types.Func)
		return ok
	}
	tn, ok := p.Scope().Lookup(c.typeName).(*types.TypeName)
	if !ok {
		return false
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || c.name == "" || c.name == "*" {
		return ok
	}
	if c.field {
		st, ok := named.Underlying().(*types.Struct)
		for i := 0; ok && i < st.NumFields(); i++ {
			if st.Field(i).Name() == c.name {
				return true
			}
		}
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == c.name {
			return true
		}
	}
	return false
}
