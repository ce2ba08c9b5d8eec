package params;

import java.lang.annotation.ElementType;
import java.lang.annotation.Target;
import java.util.List;

// An annotation on a parameter is not part of a method's signature:
// `void f(@X int a)` is `void f(int a)`.
public class Params {
    @Target({ElementType.PARAMETER, ElementType.TYPE_USE})
    @interface X {
        int value() default 0;
    }

    void f(@X int a) {
    }

    Params(@X(1) final String s, @Deprecated int n) {
    }

    int g(List<@X String> names, @X(value = 2) long count) {
        return 0;
    }

    static <T> void h(@java.lang.Deprecated T t, int @X [] b) {
    }
}
