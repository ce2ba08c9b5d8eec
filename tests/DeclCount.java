import com.sun.source.tree.BlockTree;
import com.sun.source.tree.ClassTree;
import com.sun.source.tree.CompilationUnitTree;
import com.sun.source.tree.MethodTree;
import com.sun.source.tree.Tree;
import com.sun.source.tree.VariableTree;
import com.sun.source.util.JavacTask;
import com.sun.source.util.TreeScanner;
import java.nio.charset.StandardCharsets;
import java.util.List;
import javax.tools.Diagnostic;
import javax.tools.DiagnosticCollector;
import javax.tools.JavaCompiler;
import javax.tools.JavaFileObject;
import javax.tools.StandardJavaFileManager;
import javax.tools.ToolProvider;

/**
 * Parses each file named on the command line with javac (no attribution, so the
 * files need not compile against each other) and prints one tab-separated line
 * per declared type and per file that javac rejects:
 *
 * <pre>
 * TYPE   file  qualified name  non-constructor methods  fields
 * ERROR  file
 * </pre>
 *
 * A qualified name joins the enclosing types' names with dots (Outer.Inner).
 * Annotation types, and the types declared inside them, are left out. Method
 * bodies, field initializers and initializer blocks are not entered, so local
 * and anonymous classes are left out too. Files are read as UTF-8.
 */
public final class DeclCount {
    public static void main(String[] args) throws Exception {
        JavaCompiler compiler = ToolProvider.getSystemJavaCompiler();
        DiagnosticCollector<JavaFileObject> diagnostics = new DiagnosticCollector<>();
        try (StandardJavaFileManager files =
                compiler.getStandardFileManager(diagnostics, null, StandardCharsets.UTF_8)) {
            JavacTask task = (JavacTask) compiler.getTask(
                    null, files, diagnostics, List.of("-encoding", "UTF-8", "-proc:none"), null,
                    files.getJavaFileObjects(args));
            for (CompilationUnitTree unit : task.parse()) {
                new Types(unit.getSourceFile().getName()).scan(unit, "");
            }
        }
        for (Diagnostic<? extends JavaFileObject> d : diagnostics.getDiagnostics()) {
            if (d.getKind() == Diagnostic.Kind.ERROR && d.getSource() != null) {
                System.out.println("ERROR\t" + d.getSource().getName());
            }
        }
    }

    private static final class Types extends TreeScanner<Void, String> {
        private final String file;

        Types(String file) {
            this.file = file;
        }

        @Override
        public Void visitClass(ClassTree node, String outer) {
            if (node.getKind() == Tree.Kind.ANNOTATION_TYPE) {
                return null;
            }
            String name = outer + node.getSimpleName();
            int methods = 0;
            int fields = 0;
            for (Tree member : node.getMembers()) {
                if (member instanceof MethodTree
                        && !((MethodTree) member).getName().contentEquals("<init>")) {
                    methods++;
                } else if (member instanceof VariableTree) {
                    fields++;
                }
            }
            System.out.println("TYPE\t" + file + "\t" + name + "\t" + methods + "\t" + fields);
            return scan(node.getMembers(), name + ".");
        }

        @Override
        public Void visitMethod(MethodTree node, String outer) {
            return null;
        }

        @Override
        public Void visitVariable(VariableTree node, String outer) {
            return null;
        }

        @Override
        public Void visitBlock(BlockTree node, String outer) {
            return null;
        }
    }
}
