package summitscale_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptRoots are declarations under internal/ that no command reaches but
// that stay on purpose, each named as reachName prints it:
//   - autograd.GradCheck and (*tensor.Tensor).Equal are test oracles that
//     the tests of several packages share;
//   - (*ddl.Rank).Flush is the required partner of ddl.Config.Overlap;
//   - models.CVAE is priced by a perf test, platform.Register is how
//     README adds a machine, and tensor.Uniform draws autograd's test
//     inputs;
//   - the tree and recursive-doubling allreduces run in the A1 ablation
//     benchmark;
//   - netsim.HierarchicalFabricFor and its AllReduce are the analytic
//     reference that perf's comm term and mp's island collective are
//     checked against.
var keptRoots = []string{
	"autograd.GradCheck",
	"tensor.(*Tensor).Equal",
	"ddl.(*Rank).Flush",
	"models.CVAE",
	"platform.Register",
	"tensor.Uniform",
	"mp.(*Comm).AllReduceTree",
	"mp.(*Comm).AllReduceRecursiveDoubling",
	"netsim.HierarchicalFabricFor",
	"netsim.HierarchicalFabric.AllReduce",
}

// stdInterfaceMethods are the methods that standard-library code calls
// through its own interfaces (fmt.Stringer, error, sort.Interface,
// heap.Interface, io.Reader/Writer/Closer, fmt.Formatter, errors.Unwrap
// and errors.Is): a method with one of these names is reached when its
// type is.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Read": true, "Write": true, "Close": true,
	"Format": true, "Unwrap": true, "Is": true,
}

// TestProductionCodeReachesAMain fails when a function, method or type
// under internal/ is reached from no command, example or benchmark: code
// that only tests call. It type-checks the non-test files under
// internal/, cmd/, examples/ and perfbench/ for this build and walks
// identifier uses from every main, every init, every package-level
// variable and keptRoots. Calling an interface method, or declaring it in
// a reached interface, reaches every method of that name on a reached
// type.
func TestProductionCodeReachesAMain(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the standard library from source; too slow under -race")
	}
	fset := token.NewFileSet()
	w := &walker{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		decls: map[types.Object][]ast.Node{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	for _, top := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(top, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = w.Import(modulePath + "/" + filepath.ToSlash(path))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	reached := map[types.Object]bool{}
	var queue []types.Object
	reach := func(obj types.Object) {
		if obj != nil && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	methods := map[string][]*types.Func{} // every method, by name
	declared := map[string]types.Object{} // every declaration, by reachName
	for obj := range w.decls {
		declared[reachName(obj)] = obj
		switch obj := obj.(type) {
		case *types.Var:
			reach(obj)
		case *types.Func:
			if recvNamed(obj) != nil {
				methods[obj.Name()] = append(methods[obj.Name()], obj)
			} else if obj.Name() == "init" || obj.Name() == "main" && obj.Pkg().Name() == "main" {
				reach(obj)
			}
		}
	}
	for _, name := range keptRoots {
		if obj, ok := declared[name]; ok {
			reach(obj)
		} else {
			t.Errorf("kept root %s is not declared under internal/", name)
		}
	}
	// A method is reached when it is called, or when its type is reached
	// and an interface method of its name is declared in a reached
	// interface or called.
	calledByName := map[string]bool{}
	reachByName := func(fn *types.Func) {
		if isInterfaceMethod(fn) && !calledByName[fn.Name()] {
			calledByName[fn.Name()] = true
			for _, m := range methods[fn.Name()] {
				if reached[recvNamed(m).Obj()] {
					reach(m)
				}
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); stdInterfaceMethods[m.Name()] || calledByName[m.Name()] {
						reach(m)
					}
				}
			}
		}
		for _, n := range w.decls[obj] {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := w.info.Defs[id].(*types.Func); ok {
					reachByName(fn)
				}
				used := origin(w.info.Uses[id])
				if fn, ok := used.(*types.Func); ok {
					reachByName(fn)
				}
				if used != nil && used.Pkg() != nil && strings.HasPrefix(used.Pkg().Path(), modulePath+"/") {
					reach(used)
				}
				return true
			})
		}
	}

	var missed []string
	for obj := range w.decls {
		switch obj.(type) {
		case *types.Func, *types.TypeName:
		default:
			continue
		}
		if reached[obj] || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		pos := w.fset.Position(obj.Pos())
		missed = append(missed, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(pos.Filename), pos.Line, reachName(obj)))
	}
	sort.Strings(missed)
	if len(missed) > 0 {
		t.Errorf("%d declarations under internal/ are reached from no main (delete them, or add a kept root with its reason):\n%s",
			len(missed), strings.Join(missed, "\n"))
	}
}

const modulePath = "summitscale"

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// walker type-checks the module's non-test packages, taking the standard
// library from source, and records every package-level declaration's
// syntax.
type walker struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
	decls map[types.Object][]ast.Node
}

func (w *walker) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return w.std.Import(path)
	}
	if pkg, ok := w.pkgs[path]; ok {
		return pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(w.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		w.pkgs[path] = nil
		return nil, nil
	}
	conf := types.Config{Importer: w}
	pkg, err := conf.Check(path, w.fset, files, w.info)
	if err != nil {
		return nil, err
	}
	w.pkgs[path] = pkg
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := w.info.Defs[d.Name]
				w.decls[obj] = append(w.decls[obj], d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := w.info.Defs[s.Name]
						w.decls[obj] = append(w.decls[obj], s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if obj := w.info.Defs[name]; obj != nil {
								w.decls[obj] = append(w.decls[obj], s)
							}
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

// reachName names a declaration as pkg.Func, pkg.Type, pkg.Type.Method
// or pkg.(*Type).Method.
func reachName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if named := recvNamed(fn); named != nil {
			recv := named.Obj().Name()
			if _, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				recv = "(*" + recv + ")"
			}
			name += recv + "."
		}
	}
	return name + obj.Name()
}

// recvNamed returns the named type a method is declared on, or nil for a
// function or an interface method.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || types.IsInterface(named) {
		return nil
	}
	return named
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
