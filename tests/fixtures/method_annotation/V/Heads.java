package heads;

import java.lang.annotation.ElementType;
import java.lang.annotation.Target;
import java.util.List;
import java.util.Map;

// A type annotation inside a method's return type is not part of the type:
// `java.util.@X List<String> f()` returns java.util.List<String>.
public class Heads {
    @Target(ElementType.TYPE_USE)
    @interface X {
        int value() default 0;
    }

    java.util.@X List<String> names() {
        return List.of();
    }

    int @X [] sizes() {
        return new int[0];
    }

    <T> java.util.@X(1) Map<T, @X String> index(T key) {
        return Map.of();
    }

    @Deprecated
    public String @X [] @X [] grid() {
        return new String[0][];
    }

    java.lang.@X String label;
}
