package dims;

import java.lang.annotation.ElementType;
import java.lang.annotation.Target;

// A type annotation may sit on an array dimension or inside the type:
// `int a @X [];` and `int @X [] b;` both declare a field of type int[].
public class Dims {
    @Target(ElementType.TYPE_USE)
    @interface X {
        int value() default 0;
    }

    int a @X [];
    int @X [] b;
    int c @X(1) [] @X [], d, f @X [];
    java.lang.@X(value = 2) String e;

    int size() {
        return b.length;
    }
}
